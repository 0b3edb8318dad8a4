"""Budget-matching arithmetic and trace ingestion."""

import json
import re

import pytest

from slowthink.calibration import (
    ExpansionTrace,
    TraceStats,
    complete_tree_stats,
    ingest_traces,
    integer_candidates,
    n_call,
    n_res,
    parse_trace_record,
    read_traces,
    reasonable_n_range,
    traces_to_stats,
)
from slowthink.errors import ValidationError

# Reference tree-search statistics (avg_b, avg_p, avg_L) with previously
# published budget-matched values; published inputs are rounded, hence the
# half-percent tolerances.
GSM8K = TraceStats(avg_b=4.26, avg_p=4.54, avg_L=3.11)
PRONTOQA = TraceStats(avg_b=1.67, avg_p=9.45, avg_L=4.00)
GAME24 = TraceStats(avg_b=4.56, avg_p=3.99, avg_L=3.00)


class TestBudgetFormulas:
    def test_call_matching_prontoqa(self):
        assert n_call(PRONTOQA) == pytest.approx(15.77, rel=5e-3)

    def test_call_matching_gsm8k(self):
        assert n_call(GSM8K) == pytest.approx(19.40, rel=5e-3)

    def test_call_matching_unit_width(self):
        assert n_call(TraceStats(avg_b=1, avg_p=7, avg_L=2)) == 7.0

    def test_step_matching_prontoqa(self):
        assert n_res(PRONTOQA) == pytest.approx(3.94, rel=5e-3)

    def test_step_matching_game24(self):
        assert n_res(GAME24) == pytest.approx(6.08, rel=1e-2)

    def test_step_matching_exact_integers(self):
        assert n_res(TraceStats(avg_b=2, avg_p=6, avg_L=3)) == pytest.approx(4.0)

    def test_res_is_call_over_length(self):
        for stats in (GSM8K, PRONTOQA, GAME24):
            assert n_res(stats) == pytest.approx(n_call(stats) / stats.avg_L, rel=1e-15)

    def test_linear_scaling_in_inputs(self):
        base = TraceStats(avg_b=2.5, avg_p=3.0, avg_L=2.0)
        assert n_call(
            TraceStats(avg_b=5.0, avg_p=3.0, avg_L=2.0)
        ) == pytest.approx(2 * n_call(base))
        assert n_res(
            TraceStats(avg_b=2.5, avg_p=6.0, avg_L=2.0)
        ) == pytest.approx(2 * n_res(base))

    def test_stats_must_be_positive(self):
        with pytest.raises(ValidationError):
            TraceStats(avg_b=0.0, avg_p=1.0, avg_L=1.0)


class TestReasonableRange:
    def test_ends_are_res_and_call(self):
        rng = reasonable_n_range(GSM8K)
        assert rng.low == pytest.approx(6.23, rel=1e-2)
        assert rng.high == pytest.approx(19.40, rel=5e-3)
        assert not rng.inverted

    def test_degenerate_point(self):
        rng = reasonable_n_range(TraceStats(avg_b=1, avg_p=1, avg_L=1))
        assert (rng.low, rng.high) == (1.0, 1.0)

    def test_short_paths_invert_the_range(self):
        rng = reasonable_n_range(TraceStats(avg_b=2, avg_p=3, avg_L=0.5))
        assert rng.inverted
        assert rng.low > rng.high

    def test_integer_candidates(self):
        assert integer_candidates(reasonable_n_range(PRONTOQA)) == (4, 15)


class TestTraces:
    def test_single_record_means(self):
        t = ExpansionTrace("q0", ((0, 3), (1, 3)), 3)
        stats = traces_to_stats([t])
        assert (stats.avg_b, stats.avg_p, stats.avg_L) == (3.0, 2.0, 3.0)

    def test_mean_event_count_across_questions(self):
        a = ExpansionTrace("a", tuple((0, 2) for _ in range(4)), 2)
        b = ExpansionTrace("b", tuple((0, 2) for _ in range(6)), 2)
        assert traces_to_stats([a, b]).avg_p == 5.0

    def test_complete_tree_structure(self):
        stats = complete_tree_stats(2, 3)
        assert stats.avg_b == 2.0
        assert stats.avg_p == 7.0  # 1 + 2 + 4 internal expansions
        assert stats.avg_L == 3.0

    @pytest.mark.parametrize("b, depth", [(1, 1), (1, 5), (2, 1), (2, 6), (3, 4), (5, 3)])
    def test_complete_tree_stats_match_an_enumerated_tree(self, b, depth):
        # reference: one expansion event per node above the leaf layer
        events = tuple((level, b) for level in range(depth) for _ in range(b**level))
        trace = ExpansionTrace("synthetic", events, depth)
        assert complete_tree_stats(b, depth) == traces_to_stats([trace])

    def test_complete_tree_stats_reject_empty_trees(self):
        with pytest.raises(ValidationError):
            complete_tree_stats(0, 3)
        with pytest.raises(ValidationError):
            complete_tree_stats(2, 0)

    def test_permutation_invariance(self):
        a = ExpansionTrace("a", ((0, 2), (1, 4), (1, 3)), 4)
        b = ExpansionTrace("b", ((0, 5),), 2)
        fwd = traces_to_stats([a, b])
        rev = traces_to_stats(
            [
                ExpansionTrace("b", ((0, 5),), 2),
                ExpansionTrace("a", ((1, 3), (0, 2), (1, 4)), 4),
            ]
        )
        assert fwd == rev

    def test_round_trip_through_file(self, tmp_path):
        q1 = ExpansionTrace("q1", ((0, 2), (1, 2), (1, 2), (2, 2), (2, 2), (2, 2), (2, 2)), 3)
        traces = [q1, ExpansionTrace("q2", ((0, 4),), 2)]
        path = tmp_path / "traces.jsonl"
        path.write_text("".join(
            json.dumps({"question_id": t.question_id, "events": t.events,
                        "ideal_path_length": t.ideal_path_length}) + "\n"
            for t in traces
        ))
        assert read_traces(path) == traces
        assert ingest_traces(path) == traces_to_stats(traces)

    def test_parse_error_carries_line_context(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"question_id": "q", "events": [[0, 2]], "ideal_path_length": 2}\n'
            "not json\n"
        )
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: invalid JSON")):
            read_traces(path)

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="missing field"):
            parse_trace_record('{"question_id": "q", "events": [[0, 2]]}')

    def test_malformed_events_rejected(self):
        with pytest.raises(ValidationError):
            parse_trace_record(
                '{"question_id": "q", "events": [[0]], "ideal_path_length": 1}'
            )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            ingest_traces(path)

    def test_trace_validation(self):
        with pytest.raises(ValidationError):
            ExpansionTrace("q", (), 3)
        with pytest.raises(ValidationError):
            ExpansionTrace("q", ((0, 0),), 3)
        with pytest.raises(ValidationError):
            ExpansionTrace("q", ((-1, 2),), 3)
        with pytest.raises(ValidationError):
            ExpansionTrace("q", ((0, 2),), 0)

    @pytest.mark.parametrize(
        "events, length, message",
        [
            (((0, 2.5),), 2, "children must be a whole number, got 2.5"),
            (((True, 2),), 2, "depth must be a whole number, got True"),
            (((0, 2),), 1.9, "ideal_path_length must be a whole number, got 1.9"),
        ],
    )
    def test_trace_fields_must_be_whole_numbers(self, events, length, message):
        with pytest.raises(ValidationError, match=message):
            ExpansionTrace("q", events, length)

    def test_integral_floats_are_whole_numbers(self):
        assert ExpansionTrace("q", ((0, 2.0),), 2.0) == ExpansionTrace("q", ((0, 2),), 2)
