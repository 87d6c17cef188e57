"""Tests for the scheduler tournament harness.

One tiny grid is raced once per module (session-scoped fixture) and
every structural/behavioral assertion reads from it; the committed
``TOURNAMENT.json`` artifact is validated separately so a stale or
hand-edited scorecard fails CI.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments import tournament
from repro.experiments.tournament import (
    SCORECARD_SCHEMA,
    render_markdown,
    run_tournament,
    validate_scorecard,
)
from repro.schedulers.base import available_schedulers

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def payload():
    """A small but non-trivial grid: the three reorder-profile zoo
    schemes under the fault that exposes them (core loss shifts load,
    which is what triggers Flow Director's rebinding)."""
    return run_tournament(
        schedulers=("flow-director", "flowlet", "sprinklers"),
        groups=("G1",),
        faults=("none", "core-loss"),
        utilisations=(0.6,),
        seeds=(0,),
        duration_ns=2_000_000,
        trace_packets=5_000,
    )


class TestGrid:
    def test_one_run_per_cell(self, payload):
        assert len(payload["runs"]) == 3 * 2  # schedulers x faults
        cells = {(r["scheduler"], r["fault"]) for r in payload["runs"]}
        assert len(cells) == 6

    def test_grid_echoes_request(self, payload):
        grid = payload["grid"]
        assert grid["schedulers"] == ["flow-director", "flowlet", "sprinklers"]
        assert grid["faults"] == ["none", "core-loss"]
        assert grid["utilisations"] == [0.6]

    def test_unknown_fault_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_tournament(faults=("meteor",), quick=True)


class TestCLIErrors:
    """Bad grid arguments exit 2 with one ``error:`` line naming the
    valid choices, before any workload is built or JSON written."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--schedulers", "nope",
         "unknown scheduler 'nope'; choose from "
         + ", ".join(available_schedulers())),
        ("--faults", "none,bogus",
         "unknown fault schedule 'bogus'; choose from "
         "none, core-loss, flap, slowdown-surge"),
        ("--scenarios", "G9",
         "unknown scenario 'G9'; choose from G1, G2, G3, G4, W1"),
        ("--seeds", "-1",
         "seed must be a non-negative integer, got -1"),
        ("--jobs", "-1", "jobs must be >= 0, got -1"),
    ])
    def test_bad_argument_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "t.json"
        rc = tournament.main(["--quick", flag, value, "--json", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestScorecard:
    def test_validates(self, payload):
        validate_scorecard(payload)

    def test_reproduces_flow_director_pathology(self, payload):
        """The acceptance criterion: Flow Director's follow-the-load
        rebinding produces measurably more reordering than flowlet
        switching (which waits for idle gaps) and Sprinklers (which
        stripes at chunk granularity)."""
        means = {
            e["scheduler"]: e["means"] for e in payload["scorecard"]
        }
        fd = means["flow-director"]["reorder_density"]
        assert fd > means["flowlet"]["reorder_density"]
        assert fd > means["sprinklers"]["reorder_density"]

    def test_ranks_are_contiguous_and_scored(self, payload):
        card = payload["scorecard"]
        assert [e["rank"] for e in card] == list(range(1, len(card) + 1))
        scores = [e["score"] for e in card]
        assert scores == sorted(scores)

    def test_resilience_uses_faulted_cells_only(self, payload):
        by = {
            (r["scheduler"], r["fault"]): r for r in payload["runs"]
        }
        for entry in payload["scorecard"]:
            name = entry["scheduler"]
            faulted = by[(name, "core-loss")]["drop_frac"]
            assert entry["means"]["resilience_drop_frac"] == pytest.approx(
                faulted, abs=1e-9
            )


class TestValidation:
    def _valid(self, payload):
        return copy.deepcopy(payload)

    def test_wrong_schema_rejected(self, payload):
        bad = self._valid(payload)
        bad["schema"] = "repro.tournament/0"
        with pytest.raises(ValueError, match="schema"):
            validate_scorecard(bad)

    @pytest.mark.parametrize(
        "key", ["generated_by", "grid", "runs", "scorecard"]
    )
    def test_missing_key_rejected(self, payload, key):
        bad = self._valid(payload)
        del bad[key]
        with pytest.raises(ValueError, match=key):
            validate_scorecard(bad)

    def test_empty_runs_rejected(self, payload):
        bad = self._valid(payload)
        bad["runs"] = []
        with pytest.raises(ValueError, match="runs"):
            validate_scorecard(bad)

    def test_missing_run_field_rejected(self, payload):
        bad = self._valid(payload)
        del bad["runs"][0]["reorder_density"]
        with pytest.raises(ValueError, match="reorder_density"):
            validate_scorecard(bad)

    def test_out_of_range_fraction_rejected(self, payload):
        bad = self._valid(payload)
        bad["runs"][0]["drop_frac"] = 1.5
        with pytest.raises(ValueError, match="drop_frac"):
            validate_scorecard(bad)

    def test_broken_rank_sequence_rejected(self, payload):
        bad = self._valid(payload)
        bad["scorecard"][0]["rank"] = 7
        with pytest.raises(ValueError, match="rank"):
            validate_scorecard(bad)

    def test_scheduler_mismatch_rejected(self, payload):
        bad = self._valid(payload)
        bad["scorecard"][0]["scheduler"] = "ghost"
        with pytest.raises(ValueError, match="ghost"):
            validate_scorecard(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_scorecard([])


class TestRendering:
    def test_markdown_has_every_scheduler_row(self, payload):
        md = render_markdown(payload)
        assert "| rank | scheduler |" in md
        for entry in payload["scorecard"]:
            assert f"| {entry['scheduler']} |" in md

    def test_markdown_mentions_grid_shape(self, payload):
        md = render_markdown(payload)
        assert f"{len(payload['runs'])} runs" in md


class TestCommittedArtifact:
    def test_tournament_json_is_valid(self):
        path = REPO_ROOT / "TOURNAMENT.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCORECARD_SCHEMA
        validate_scorecard(payload)

    def test_committed_scorecard_shows_the_pathology(self):
        payload = json.loads((REPO_ROOT / "TOURNAMENT.json").read_text())
        means = {e["scheduler"]: e["means"] for e in payload["scorecard"]}
        fd = means["flow-director"]["reorder_density"]
        assert fd > means["flowlet"]["reorder_density"]
        assert fd > means["sprinklers"]["reorder_density"]
