"""Command-line tests: golden outputs, exit codes, determinism, file IO."""

import json
import subprocess
import sys

import pytest

from antsearch.algorithms import build_from_spec, build_random_walk_baseline
from antsearch.automaton import ACTION_DELTA, Action, chi, from_json
from antsearch.chain_analysis import analyze_report
from antsearch.algorithms import KINDS
from antsearch.cli import _build_parser, _effective_spec, main
from antsearch.experiments import SWEEP_COLUMNS, coverage_experiment

from helpers import KIND_EXAMPLES, kind_spec


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# chi


def test_chi_golden_line(capsys):
    rc, out, err = run_cli(["chi", "--alg", "nonuniform-search:D=256,l=2"], capsys)
    assert rc == 0 and err == ""
    assert out == "b=5 ℓ=2 χ=6\nstates=22 p_min=1/4\n"


def test_chi_fragment_detail(capsys):
    rc, out, _ = run_cli(["chi", "--alg", "coin:k=3,l=2"], capsys)
    assert rc == 0
    assert out == "b=3 ℓ=2 χ=4\nstates=6 p_min=1/4 fragment: internal=3 b=2 ℓ=2 χ=3\n"
    _, info = build_from_spec("coin:k=3,l=2")
    f = info["fragment"]
    assert (f["states"], f["b"], f["ell"], f["chi"]) == (3, 2, 2, 3.0)


def test_chi_flags_merge_into_spec(capsys):
    rc1, out1, _ = run_cli(["chi", "--alg", "nonuniform", "--D", "256"], capsys)
    rc2, out2, _ = run_cli(["chi", "--alg", "nonuniform:D=256"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2 == "b=3 ℓ=16 χ=7\nstates=5 p_min=1/65536\n"


_FLAGS = ("D", "l", "K", "cap", "n")


@pytest.mark.parametrize("kind", sorted(KIND_EXAMPLES))
def test_flags_merge_like_explicit_spec_for_every_kind(kind, capsys):
    # e.g. --alg uniform --l 1 --n 4 ... equals uniform:l=1,n=4,...
    assert set(KIND_EXAMPLES) == set(KINDS)
    params = KIND_EXAMPLES[kind]
    explicit = kind_spec(kind, params)
    flagged = kind_spec(kind, {k: v for k, v in params.items() if k not in _FLAGS})
    flags = [arg for k, v in params.items() if k in _FLAGS for arg in (f"--{k}", str(v))]
    argv = ["export-automaton", "--alg", flagged, *flags]
    assert _effective_spec(flagged, _build_parser().parse_args(argv)) == explicit
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(["export-automaton", "--alg", explicit], capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_chi_unknown_kind_exits_1(capsys):
    rc, out, err = run_cli(["chi", "--alg", "bogus:x=1"], capsys)
    assert rc == 1 and out == ""
    assert "unknown algorithm kind 'bogus'" in err


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chi"])
    assert exc.value.code == 1
    assert "--alg" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_json_output(capsys):
    rc, out, _ = run_cli(
        [
            "simulate",
            "--alg", "nonuniform:D=4",
            "--target", "corner",
            "--D", "4",
            "--trials", "2",
            "--seed", "3",
            "--format", "json",
        ],
        capsys,
    )
    assert rc == 0
    data = json.loads(out)
    row = data["row"]
    assert row["schema"] == 1
    assert row["algorithm"] == "nonuniform:D=4"
    assert row["budget"] == 1280  # default 64*(D*D/n + D)
    assert row["trials"] == 2 and row["seed"] == 3
    assert len(data["records"]) == 2
    assert data["records"][0]["target"] == [4, 4]


def test_simulate_rerun_and_jobs_byte_identical(tmp_path, capsys):
    base = [
        "simulate",
        "--alg", "nonuniform:D=8",
        "--target", "corner",
        "--D", "8",
        "--trials", "50",
        "--n", "2",
        "--seed", "12",
        "--format", "csv",
    ]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    for path, jobs in zip(paths, ("1", "4", "1")):
        rc, _, _ = run_cli(base + ["--jobs", jobs, "--out", str(path)], capsys)
        assert rc == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    first = blobs[0].decode().splitlines()
    assert first[0] == "trial,target_x,target_y,found,m_moves,m_steps,finder,exhausted"
    assert len(first) == 51


def test_simulate_trace_replays_positions(capsys):
    rc, out, _ = run_cli(
        [
            "simulate",
            "--alg", "walkbaseline",
            "--target", "2,2",
            "--budget", "30",
            "--trials", "1",
            "--seed", "5",
            "--trace",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step,state,action,x,y"
    assert lines[1] == "0,0,origin,0,0"
    x = y = 0
    for i, line in enumerate(lines[1:]):
        step, state, action, cx, cy = line.split(",")
        assert int(step) == i
        dx, dy = ACTION_DELTA[Action(action)]
        if action == "origin":
            x = y = 0
        x, y = x + dx, y + dy
        assert (int(cx), int(cy)) == (x, y)


def test_simulate_trace_needs_single_walker(capsys):
    rc, _, err = run_cli(
        [
            "simulate",
            "--alg", "walkbaseline",
            "--target", "2,2",
            "--budget", "30",
            "--trials", "2",
            "--seed", "5",
            "--trace",
        ],
        capsys,
    )
    assert rc == 1
    assert "--trace requires --trials 1 and --n 1" in err


def test_simulate_zero_agents_exits_1(capsys):
    # without --budget the default budget would divide by n
    rc, out, err = run_cli(
        ["simulate", "--alg", "nonuniform:D=4", "--target", "corner", "--D", "4", "--n", "0", "--seed", "1"],
        capsys,
    )
    assert rc == 1 and out == ""
    assert err == "error: --n must be >= 1\n"


def test_simulate_corner_target_needs_D(capsys):
    rc, _, err = run_cli(
        ["simulate", "--alg", "walkbaseline", "--target", "corner", "--trials", "1", "--seed", "1"],
        capsys,
    )
    assert rc == 1
    assert "needs --D" in err


def test_simulate_rejects_malformed_target(capsys):
    rc, _, err = run_cli(
        ["simulate", "--alg", "walkbaseline", "--target", "nowhere", "--budget", "5", "--trials", "1", "--seed", "1"],
        capsys,
    )
    assert rc == 1
    assert "--target must be x,y or corner or uniform" in err


# ---------------------------------------------------------------------------
# export / file round trip


def test_export_automaton_round_trip(tmp_path, capsys):
    path = tmp_path / "machine.json"
    rc, _, _ = run_cli(["export-automaton", "--alg", "nonuniform:D=16", "--out", str(path)], capsys)
    assert rc == 0
    a = from_json(path.read_text())
    b, _ = build_from_spec("nonuniform:D=16")
    assert a.start == b.start and a.labels == b.labels and a.rows == b.rows
    assert chi(a) == chi(b)
    # the exported file is a valid --alg file: input and reports the same chi
    rc1, out1, _ = run_cli(["chi", "--alg", f"file:{path}"], capsys)
    rc2, out2, _ = run_cli(["chi", "--alg", "nonuniform:D=16"], capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_file_alg_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"start": 0,\n  "states": [}')
    rc, _, err = run_cli(["chi", "--alg", f"file:{path}"], capsys)
    assert rc == 1
    assert "invalid JSON at line 2" in err and "column" in err


def test_file_alg_missing_file(capsys):
    rc, _, err = run_cli(["chi", "--alg", "file:/no/such/machine.json"], capsys)
    assert rc == 1
    assert "cannot read automaton file" in err


def test_file_alg_invalid_machine(tmp_path, capsys):
    path = tmp_path / "halfrow.json"
    path.write_text(
        json.dumps(
            {
                "start": 0,
                "states": [
                    {"id": 0, "label": "origin", "transitions": [{"to": 0, "num": 1, "den": 2}]}
                ],
            }
        )
    )
    rc, _, err = run_cli(["chi", "--alg", f"file:{path}"], capsys)
    assert rc == 1
    assert "halfrow.json" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_matches_library_report(capsys):
    rc, out, _ = run_cli(["analyze", "--alg", "walkbaseline", "--D", "4"], capsys)
    assert rc == 0
    assert json.loads(out) == json.loads(json.dumps(analyze_report(build_random_walk_baseline(), 4)))


def test_analyze_needs_D(capsys):
    rc, _, err = run_cli(["analyze", "--alg", "walkbaseline"], capsys)
    assert rc == 1
    assert "needs --D" in err


# ---------------------------------------------------------------------------
# sweep


def _write_plan(tmp_path, **extra):
    plan = {
        "algorithm": "nonuniform:D={D}",
        "target": "corner",
        "D": [2, 4],
        "n": [1],
        "trials": 5,
        "budget_factor": 8,
    }
    plan.update(extra)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_sweep_csv_end_to_end(tmp_path, capsys):
    path = _write_plan(tmp_path)
    rc, out, _ = run_cli(["sweep", str(path), "--seed", "2"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines[1:]]
    assert [r["D"] for r in rows] == ["2", "4"]
    assert [r["algorithm"] for r in rows] == ["nonuniform:D=2", "nonuniform:D=4"]
    # budget_factor * (D^2/n + D)
    assert [r["budget"] for r in rows] == ["48", "160"]
    assert all(r["trials"] == "5" and r["seed"] == "2" for r in rows)


def test_sweep_json_matches_csv_rows(tmp_path, capsys):
    path = _write_plan(tmp_path)
    rc, out_json, _ = run_cli(["sweep", str(path), "--seed", "2", "--format", "json"], capsys)
    assert rc == 0
    rows = json.loads(out_json)
    assert [r["D"] for r in rows] == [2, 4]
    assert all(r["schema"] == 1 for r in rows)
    rc, out_csv, _ = run_cli(["sweep", str(path), "--seed", "2"], capsys)
    assert rc == 0
    csv_means = [line.split(",")[8] for line in out_csv.splitlines()[1:]]
    assert [repr(r["mean_m_moves"]) for r in rows] == csv_means


def test_sweep_missing_key(tmp_path, capsys):
    plan = {"algorithm": "nonuniform:D={D}", "target": "corner", "D": [2], "n": [1]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    rc, _, err = run_cli(["sweep", str(path), "--seed", "0"], capsys)
    assert rc == 1
    assert "missing required key 'trials'" in err


def test_sweep_needs_budget(tmp_path, capsys):
    plan = {"algorithm": "nonuniform:D={D}", "target": "corner", "D": [2], "n": [1], "trials": 1}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    rc, _, err = run_cli(["sweep", str(path), "--seed", "0"], capsys)
    assert rc == 1
    assert "'budget' or 'budget_factor'" in err


def test_sweep_bad_template_field(tmp_path, capsys):
    path = _write_plan(tmp_path, algorithm="nonuniform:D={radius}")
    rc, _, err = run_cli(["sweep", str(path), "--seed", "0"], capsys)
    assert rc == 1
    assert "references unknown field" in err


@pytest.mark.parametrize("key,value", [("D", 8), ("n", 1), ("l", 2), ("D", ["8"]), ("n", [0])])
def test_sweep_axis_must_be_list_of_positive_ints(tmp_path, capsys, key, value):
    path = _write_plan(tmp_path, **{key: value})
    rc, out, err = run_cli(["sweep", str(path), "--seed", "0"], capsys)
    assert rc == 1 and out == ""
    assert err == f"error: sweep file {path}: {key!r} must be a list of positive integers\n"


def test_sweep_invalid_json(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text("{\n  broken")
    rc, _, err = run_cli(["sweep", str(path), "--seed", "0"], capsys)
    assert rc == 1
    assert "invalid JSON at line 2" in err


# ---------------------------------------------------------------------------
# coverage


def test_coverage_matches_library(capsys):
    rc, out, _ = run_cli(
        [
            "coverage",
            "--alg", "walkbaseline",
            "--D", "4",
            "--n", "2",
            "--trials", "2",
            "--budget", "10",
            "--seed", "1",
        ],
        capsys,
    )
    assert rc == 0
    want = coverage_experiment(build_random_walk_baseline(), 4, 10, 1, 2, 2, 1)
    assert json.loads(out) == json.loads(json.dumps(want))


def test_coverage_needs_D(capsys):
    rc, _, err = run_cli(["coverage", "--alg", "walkbaseline", "--seed", "1"], capsys)
    assert rc == 1
    assert "needs --D" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_exit_codes(monkeypatch, capsys):
    calls = []

    def fake_suite(seed=0):
        calls.append(seed)
        return {"schema": 1, "seed": seed, "passed": seed == 0, "checks": []}

    monkeypatch.setattr("antsearch.cli.verification_suite", fake_suite)
    rc, out, _ = run_cli(["verify"], capsys)
    assert rc == 0
    assert json.loads(out)["passed"] is True
    rc, out, _ = run_cli(["verify", "--seed", "9"], capsys)
    assert rc == 2
    assert json.loads(out)["passed"] is False
    assert calls == [0, 9]


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_matches_in_process(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "antsearch.cli", "chi", "--alg", "coin:k=3,l=2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rc, out, _ = run_cli(["chi", "--alg", "coin:k=3,l=2"], capsys)
    assert proc.stdout == out
