import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import tiny_scenario
from vrcgsim.cli import main
from vrcgsim.metrics import CSV_COLUMNS
from vrcgsim.scenario import load_scenario, scenario_to_json


RUN = ["--seed", "3", "--users", "15", "--bs", "2", "--cns", "3"]


def test_generate_writes_loadable_scenario(tmp_path):
    out = tmp_path / "sc.json"
    assert main(["generate", *RUN, "--out", str(out)]) == 0
    sc = load_scenario(out.read_text())
    assert len(sc.users) == 15
    assert sc.seed == 3


def test_generate_to_stdout(capsys):
    assert main(["generate", "--users", "4", "--bs", "2", "--cns", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["users"]) == 4


def test_run_inline_and_from_file_agree(tmp_path):
    sc_path = tmp_path / "sc.json"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["generate", *RUN, "--out", str(sc_path)]) == 0
    assert main(["run", str(sc_path), "--out", str(a)]) == 0
    assert main(["run", *RUN, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", *RUN, "--methods", "vexa,gepar,amps,rr", "--timesteps", "3"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # timing is the one intentional source of drift
    assert main([*args, "--out", str(b), "--timing"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_run_json_format(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", *RUN, "--format", "json", "--timesteps", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["timestep"] for r in doc["reports"]] == [0, 1]
    assert "vexa" in doc["reports"][0]["methods"]


def test_verify_accepts_own_solutions(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    assert main(["generate", *RUN, "--out", str(sc_path)]) == 0
    assert main(["run", str(sc_path), "--methods", "vexa,gepar,amps",
                 "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)]) == 0
    assert main(["verify", str(sc_path), str(sols)]) == 0
    out = capsys.readouterr().out
    assert "gepar: ok" in out and "amps: ok" in out


def test_verify_flags_tampered_grants(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    main(["generate", *RUN, "--out", str(sc_path)])
    main(["run", str(sc_path), "--methods", "vexa,amps",
          "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)])
    doc = json.loads(sols.read_text())
    doc["solutions"]["amps"]["schedule"].pop()
    sols.write_text(json.dumps(doc))
    assert main(["verify", str(sc_path), str(sols)]) == 1
    assert "amps:" in capsys.readouterr().out


@pytest.mark.parametrize("column, value, words", [
    (1, 2**70, f"'amps': schedule TTI {2**70} does not fit 32 bits"),
    (3, 2**70, f"'amps': schedule grant count {2**70} does not fit 32 bits"),
    (1, float("inf"), "cannot convert float infinity to integer"),
])
def test_verify_rejects_integers_past_32_bits(tmp_path, capsys, column, value, words):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    main(["generate", *RUN, "--out", str(sc_path)])
    main(["run", str(sc_path), "--methods", "vexa,amps",
          "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)])
    doc = json.loads(sols.read_text())
    doc["solutions"]["amps"]["schedule"][0][column] = value
    sols.write_text(json.dumps(doc))
    assert main(["verify", str(sc_path), str(sols)]) == 2
    err = capsys.readouterr().err
    assert "malformed solution document" in err and words in err


@pytest.mark.parametrize("resolution", [[960], [960, 1080, 5], ["960", "1080"]])
def test_verify_rejects_a_resolution_that_is_not_two_integers(tmp_path, capsys, resolution):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    main(["generate", *RUN, "--out", str(sc_path)])
    main(["run", str(sc_path), "--methods", "vexa,amps,mtpsched",
          "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)])
    doc = json.loads(sols.read_text())
    uid = min(doc["solutions"]["vexa"]["resolution"])
    doc["solutions"]["vexa"]["resolution"][uid] = resolution
    sols.write_text(json.dumps(doc))
    assert main(["verify", str(sc_path), str(sols)]) == 2
    err = capsys.readouterr().err
    assert "malformed solution document" in err
    assert f"'vexa': resolution {resolution!r} of user {uid} is not two integers" in err


def _unknown_cell(entry, uid):
    entry["assoc"][uid] = ["bs9"]
    return f"stage1: association-bounds {uid}: unknown cell bs9"


def _unknown_user(entry, uid):
    entry["assoc"]["u999"] = entry["assoc"][uid]
    return "stage1: unknown-user u999: admitted id not in scenario"


def _no_frame_rate(entry, uid):
    del entry["frame_rate"][uid]
    return f"stage1: selection {uid}: frame rate None not offered by headset"


@pytest.mark.parametrize("doctor", [_unknown_cell, _unknown_user, _no_frame_rate])
def test_verify_words_a_stage1_fault_the_later_stages_cannot_be_read_against(
        tmp_path, capsys, doctor):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    main(["generate", *RUN, "--out", str(sc_path)])
    main(["run", str(sc_path), "--methods", "vexa,gepar,amps",
          "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)])
    doc = json.loads(sols.read_text())
    entry = doc["solutions"]["stage1"]
    words = doctor(entry, min(entry["assoc"]))
    sols.write_text(json.dumps(doc))
    assert main(["verify", str(sc_path), str(sols)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert words in out
    assert "gepar: not-checked gepar: cannot be read against the faulty stage1 entry" in out
    assert "vexa: ok" in out


def test_compare_reports_gaps(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    assert main(["run", *RUN, "--methods", "vexa,sa", "--out", str(a)]) == 0
    assert main(["run", *RUN, "--methods", "vexa,sa", "--format", "json",
                 "--out", str(b)]) == 0
    assert main(["compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "timestep,method,metric,first,second,diff"
    assert len(lines) > 1
    # identical runs in different formats cannot disagree
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])


@pytest.mark.parametrize("fmt,column", [("csv", 0), ("csv", 2), ("json", 2)])
def test_compare_refuses_a_value_that_is_not_a_number(tmp_path, capsys, fmt, column):
    """A timestep or cell that is not a number is an invalid file: exit 2
    naming it, before anything is printed."""
    good, bad = tmp_path / "good.csv", tmp_path / f"bad.{fmt}"
    assert main(["run", *RUN, "--methods", "vexa", "--out", str(good)]) == 0
    assert main(["run", *RUN, "--methods", "vexa", "--format", fmt, "--out", str(bad)]) == 0
    if fmt == "json":
        doc = json.loads(bad.read_text())
        doc["reports"][0]["methods"]["vexa"][CSV_COLUMNS[column]] = "x"
        bad.write_text(json.dumps(doc))
    else:
        head, row, *rest = bad.read_text().splitlines()
        cells = row.split(",")
        cells[column] = "x"
        bad.write_text("\n".join([head, ",".join(cells), *rest]) + "\n")
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(bad) in err


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", *RUN, "--methods", "vexa,bogus"]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert main(["run", "--timesteps", "0"]) == 2
    assert main(["run", *RUN, "--methods", "oracle_stage1"]) == 2  # too big
    capsys.readouterr()


def test_oracle_refuses_a_count_past_the_float_range(capsys):
    # at least 5**400 stage-1 options: the count is an integer, its estimate inf
    assert main(["run", "--users", "400", "--bs", "4", "--cns", "6",
                 "--methods", "oracle_stage1", "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert "over budget" in err and "estimated inf candidate evaluations" in err


ORACLES = ["vexa", "oracle_stage1", "gepar", "oracle_stage2", "amps", "oracle_stage3"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracles_run_on_a_three_user_default_city(tmp_path, seed):
    out = tmp_path / "r.csv"
    assert main(["run", "--seed", str(seed), "--users", "3", "--bs", "2", "--cns", "2",
                 "--methods", ",".join(ORACLES), "--out", str(out)]) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ORACLES


def test_infeasible_placement_exits_1(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    doc = json.loads(scenario_to_json(tiny_scenario(seed=2)))
    for cn in doc["compute_nodes"]:
        cn["gpu_cap"] = 1.0  # nothing can host a game engine
    sc_path.write_text(json.dumps(doc))
    # the heuristics shrug and report unplaced users; the exact solver
    # refuses outright, which is the infeasibility signal
    assert main(["run", str(sc_path), "--methods", "vexa,gepar"]) == 0
    assert main(["run", str(sc_path), "--methods", "vexa,oracle_stage2"]) == 1
    capsys.readouterr()


def test_cli_needs_no_library_but_numpy(tmp_path):
    """generate, run and verify with the test-only libraries unimportable."""
    script = (
        "import sys\n"
        "for name in ('scipy', 'networkx', 'hypothesis', 'pytest'):\n"
        "    sys.modules[name] = None\n"
        "from vrcgsim.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    sc, sols = tmp_path / "sc.json", tmp_path / "sols.json"
    for args in (
        ["generate", *RUN, "--out", str(sc)],
        ["run", str(sc), "--methods", "vexa,gepar,amps,mtpsched",
         "--out", str(tmp_path / "out.csv"), "--solutions", str(sols)],
        ["verify", str(sc), str(sols)],
    ):
        done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (args[0], done.stderr)
    # the stage-2 oracle is the one method that needs scipy: it refuses
    done = subprocess.run([sys.executable, "-c", script, "run", str(sc), "--methods",
                           "vexa,oracle_stage2", "--out", os.devnull], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "scipy" in done.stderr, done.stderr


def test_verify_flags_an_unplaced_set_that_disagrees_with_the_placement(tmp_path, capsys):
    sc_path = tmp_path / "sc.json"
    sols = tmp_path / "sols.json"
    main(["generate", *RUN, "--out", str(sc_path)])
    main(["run", str(sc_path), "--methods", "vexa,gepar",
          "--out", str(tmp_path / "r.csv"), "--solutions", str(sols)])
    doc = json.loads(sols.read_text())
    entry = doc["solutions"]["gepar"]
    uid = min(entry["placement"])
    entry["unplaced"] = sorted({*entry["unplaced"], uid, "ghost"})
    sols.write_text(json.dumps(doc))
    assert main(["verify", str(sc_path), str(sols)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"gepar: placement {uid}: placed and reported unplaced" in out
    assert "gepar: placement ghost: reported unplaced but not admitted in stage 1" in out
    assert "vexa: ok" in out
