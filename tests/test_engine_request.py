"""Tests for the engine-side request lifecycle."""

from __future__ import annotations

import pytest

from repro.engine.request import Request, RequestState
from tests.conftest import make_spec
from tests.helpers import deliver


def make_request(**kwargs) -> Request:
    return Request(spec=make_spec(**kwargs), arrival_time=1.0)


class TestIdentity:
    def test_requests_built_from_one_spec_are_distinct(self):
        spec = make_spec()
        first = Request(spec=spec, arrival_time=1.0)
        second = Request(spec=spec, arrival_time=1.0)
        assert first != second
        assert first == first
        assert len({first, second}) == 2


class TestLifecycle:
    def test_initial_state(self):
        request = make_request()
        assert request.state is RequestState.QUEUED
        assert not request.is_running
        assert not request.is_finished

    def test_admit_starts_prefill(self):
        request = make_request(input_length=10)
        request.admit(2.0)
        assert request.state is RequestState.PREFILLING
        assert request.admission_times == [2.0]
        assert request.prefill_remaining == 10

    def test_admit_twice_rejected(self):
        request = make_request()
        request.admit(2.0)
        with pytest.raises(ValueError):
            request.admit(3.0)

    def test_prefill_completion_moves_to_decoding(self):
        request = make_request(input_length=10)
        request.admit(2.0)
        request.note_prefill(10)
        assert request.state is RequestState.DECODING

    def test_chunked_prefill_progress(self):
        request = make_request(input_length=10)
        request.admit(2.0)
        request.note_prefill(4)
        assert request.state is RequestState.PREFILLING
        assert request.prefill_remaining == 6
        request.note_prefill(6)
        assert request.state is RequestState.DECODING

    def test_note_prefill_rejects_negative(self):
        request = make_request()
        request.admit(0.0)
        with pytest.raises(ValueError):
            request.note_prefill(-1)

    def test_finish(self):
        request = make_request(input_length=4, output_length=1)
        request.admit(0.0)
        request.note_prefill(4)
        deliver(request, [1.0])
        request.finish(1.0)
        assert request.is_finished
        assert request.finish_time == 1.0

    def test_finish_requires_running_state(self):
        request = make_request()
        with pytest.raises(ValueError):
            request.finish(1.0)

    def test_open_segment_requires_decoding_state(self):
        request = make_request()
        with pytest.raises(ValueError):
            request.open_segment([1.0], 0)
        request.admit(0.0)
        with pytest.raises(ValueError):
            request.open_segment([1.0], 0)


class TestEviction:
    def _running_request(self, generated: int = 3) -> Request:
        request = make_request(input_length=8, output_length=10, max_new_tokens=20)
        request.admit(0.0)
        request.note_prefill(8)
        deliver(request, [float(step + 1) for step in range(generated)])
        return request

    def test_evict_returns_to_queue_and_counts(self):
        request = self._running_request()
        request.evict()
        assert request.state is RequestState.QUEUED
        assert request.eviction_count == 1

    def test_evict_requires_running_state(self):
        request = make_request()
        with pytest.raises(ValueError):
            request.evict()

    def test_recompute_includes_generated_tokens(self):
        request = self._running_request(generated=5)
        request.evict()
        assert request.recompute_tokens == 8 + 5

    def test_readmission_prefills_recompute_tokens(self):
        request = self._running_request(generated=5)
        request.evict()
        request.admit(10.0)
        assert request.prefill_remaining == 13
        assert request.admission_times == [0.0, 10.0]

    def test_generated_tokens_survive_eviction(self):
        request = self._running_request(generated=4)
        request.evict()
        assert request.generated_tokens == 4
        assert len(request.token_times) == 4


class TestTokenMath:
    def test_prompt_includes_image_tokens(self):
        request = make_request(input_length=10, image_tokens=576)
        assert request.prompt_tokens == 586

    def test_remaining_true_and_cap_tokens(self):
        request = make_request(input_length=4, output_length=10, max_new_tokens=20)
        request.admit(0.0)
        request.note_prefill(4)
        deliver(request, [1.0])
        assert request.remaining_true_tokens == 9
        assert request.remaining_cap_tokens == 19

    def test_segment_last_token_at_true_length(self):
        request = make_request(input_length=4, output_length=2, max_new_tokens=50)
        request.admit(0.0)
        request.note_prefill(4)
        ends = [0.5]
        assert request.open_segment(ends, 1) == 2
        ends.append(1.0)
        assert request.remaining_true_tokens == 1
        ends.append(2.0)
        assert request.remaining_true_tokens == 0
        assert request.generated_tokens == 2
        assert request.token_times == [1.0, 2.0]

    def test_segment_last_token_counts_earlier_residencies(self):
        request = make_request(input_length=4, output_length=3, max_new_tokens=3)
        request.admit(0.0)
        request.note_prefill(4)
        deliver(request, [1.0])
        request.evict()
        request.admit(2.0)
        request.note_prefill(request.recompute_tokens)
        # One token is already out: two remain, on ends 5 and 6.
        assert request.open_segment([0.0] * 5, 5) == 6


class TestSegments:
    """Decode tokens are read off the engine's end-time list until the segment closes."""

    def _decoding(self, input_length: int = 4) -> Request:
        request = make_request(input_length=input_length, output_length=10, max_new_tokens=20)
        request.admit(0.0)
        request.note_prefill(input_length)
        return request

    def test_derived_state_follows_the_end_list(self):
        request = self._decoding()
        deliver(request, [1.0])
        ends = [0.1, 0.2]
        request.open_segment(ends, 2)
        assert (request.generated_tokens, request.token_times) == (1, [1.0])
        ends += [2.0, 3.0]
        assert request.generated_tokens == 3
        assert request.current_context_tokens == 4 + 3
        assert request.token_times == [1.0, 2.0, 3.0]
        assert request.remaining_true_tokens == 7

    def test_close_materialises_and_detaches(self):
        request = self._decoding()
        ends = [1.0, 2.0]
        request.open_segment(ends, 0)
        request.close_segment()
        ends.append(3.0)
        assert request.generated_tokens == 2
        assert request.token_times == [1.0, 2.0]

    def test_close_before_an_unserved_end(self):
        request = self._decoding()
        ends = [1.0, 2.0, 3.0]
        request.open_segment(ends, 1)
        request.close_segment(2)
        assert request.token_times == [2.0]
        assert request.current_context_tokens == 4 + 1

    @pytest.mark.parametrize("leave", ["evict", "finish", "abort"])
    def test_leaving_the_batch_closes_the_segment(self, leave):
        request = self._decoding()
        ends = [1.0]
        request.open_segment(ends, 0)
        getattr(request, leave)(*(() if leave == "evict" else (1.0,)))
        ends.append(2.0)
        assert request.token_times == [1.0]


class TestLatencyProperties:
    def test_ttft(self):
        request = make_request()
        request.admit(1.5)
        request.note_prefill(request.prompt_tokens)
        deliver(request, [3.0])
        assert request.ttft == pytest.approx(2.0)  # arrival was at 1.0

    def test_ttft_none_before_first_token(self):
        assert make_request().ttft is None

    def test_tpot_gaps(self):
        request = make_request(output_length=5, max_new_tokens=8)
        request.admit(1.0)
        request.note_prefill(request.prompt_tokens)
        deliver(request, [2.0, 2.5, 4.0])
        assert request.tpots == [0.5, 1.5]
        assert request.max_tpot == pytest.approx(1.5)
        assert request.mean_tpot == pytest.approx(1.0)

    def test_single_token_has_no_tpot(self):
        request = make_request(output_length=5, max_new_tokens=8)
        request.admit(1.0)
        request.note_prefill(request.prompt_tokens)
        deliver(request, [2.0])
        assert request.max_tpot is None
        assert request.mean_tpot is None
