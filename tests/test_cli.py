"""CLI surface: output schemas, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tracemoments
from tracemoments import cli, montecarlo


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_mean_oracle_example(capsys):
    status, out, _ = run_cli(
        capsys, "mean-oracle", "--l", "2", "--p", "2", "--n", "3",
        "--dist", "gaussian", "--no-timestamp",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == "4/1"
    assert {"r", "b", "multiplicity", "inner_sum"} <= set(payload["terms"][0])


def test_verify_taylor_example(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--suite", "taylor", "--max-l", "30", "--no-timestamp"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["suite"] == "taylor"
    assert payload["cases"] == 435
    assert payload["failures"] == []


def test_mp_example(capsys):
    status, out, _ = run_cli(capsys, "mp", "--l", "2", "--y", "1/2", "--no-timestamp")
    assert status == 0
    assert json.loads(out)["value"] == "3/2"


def test_mp_rejects_negative_ratio(capsys):
    status, out, err = run_cli(capsys, "mp", "--l", "2", "--y", "-1", "--no-timestamp")
    assert status == 1 and out == ""
    assert "y >= 0" in err and "Traceback" not in err
    status, out, _ = run_cli(capsys, "mp", "--l", "2", "--y", "0", "--no-timestamp")
    assert status == 0
    assert json.loads(out)["value"] == "1/1"


def test_bs_check_readme_example(capsys):
    status, out, _ = run_cli(capsys, "bs-check", "--max-l", "20", "--no-timestamp")
    assert status == 0
    payload = json.loads(out)
    assert payload["mean"] == {"cases": 230, "failures": []}
    assert payload["cov"] == {"cases": 8400, "failures": []}


def test_mean_closed_with_alpha(capsys):
    status, out, _ = run_cli(
        capsys, "mean-closed", "--l", "2", "--p", "2", "--n", "3",
        "--alpha", "3", "--no-timestamp",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == "10/3"
    assert payload["coeff"] == {"c0": "2/1", "c1": "4/9"}


def test_cov_commands(capsys):
    status, out, _ = run_cli(
        capsys, "cov-oracle", "--l1", "1", "--l2", "1", "--p", "2", "--n", "4",
        "--dist", "gaussian", "--no-timestamp",
    )
    assert status == 0
    assert json.loads(out)["value"] == "1/1"
    status, out, _ = run_cli(
        capsys, "cov-closed", "--l1", "1", "--l2", "1", "--p", "2", "--n", "4",
        "--dist", "rademacher", "--no-timestamp",
    )
    assert status == 0
    assert json.loads(out)["value"] == "0/1"


def test_census_commands(capsys):
    status, out, _ = run_cli(capsys, "census", "--l", "2", "--b", "1", "--no-timestamp")
    assert status == 0
    payload = json.loads(out)
    assert payload["buckets"] == [
        {"seed_class": "two_d_ring", "ring_length": 1, "count": 2},
        {"seed_class": "two_d_ring", "ring_length": 2, "count": 1},
    ]
    status, out, _ = run_cli(
        capsys, "census", "--l1", "1", "--l2", "1", "--b", "1", "--no-timestamp"
    )
    assert status == 0
    payload = json.loads(out)
    ring_rows = [r for r in payload["buckets"] if r["seed_class"] == "double_two_d_ring"]
    assert ring_rows == [
        {"seed_class": "double_two_d_ring", "ring_length": 2, "split": [0, 0, 0, 0],
         "count": 1}
    ]


def test_census_double_rejects_empty_walks(capsys):
    for l1, l2 in [("0", "2"), ("2", "-1")]:
        status, out, err = run_cli(
            capsys, "census", "--l1", l1, "--l2", l2, "--b", "1", "--no-timestamp"
        )
        assert status == 1 and out == ""
        assert "l1 and l2 must be positive" in err and "Traceback" not in err


def test_simulate_rejects_a_bad_power_list(capsys):
    status, out, err = run_cli(
        capsys, "simulate", "--p", "2", "--n", "3", "--l", "1,,2", "--reps", "200",
        "--dist", "gaussian", "--seed", "1", "--no-timestamp",
    )
    assert status == 1 and out == ""
    assert err == "error: bad power list '1,,2'\n"


def test_bad_moment_list_is_named(capsys):
    status, out, err = run_cli(
        capsys, "mean-oracle", "--l", "2", "--p", "2", "--n", "3",
        "--moments", "1,,1,0,3", "--no-timestamp",
    )
    assert status == 1 and out == ""
    assert err == "error: bad moment list '1,,1,0,3'\n"


def test_bad_rationals_are_named(capsys):
    for argv, message in [
        (("mp", "--l", "2", "--y", "1/0"), "bad ratio '1/0'"),
        (("mean-closed", "--l", "2", "--p", "2", "--n", "3", "--alpha", "x"),
         "bad fourth moment 'x'"),
        (("cov-closed", "--l1", "1", "--l2", "1", "--p", "2", "--n", "3", "--alpha", "9/0"),
         "bad fourth moment '9/0'"),
    ]:
        status, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert status == 1 and out == "", argv
        assert err == f"error: {message}\n"


def test_closed_stdout_exits_one_quietly():
    # the reader is gone before the command writes, as with `| head -c 10`
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tracemoments.cli", "verify", "--suite", "taylor"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_verify_rejects_max_l_below_one(capsys):
    for argv in [
        ("verify", "--suite", "taylor", "--max-l", "0"),
        ("verify", "--suite", "ring-census", "--max-l", "-3"),
        ("bs-check", "--max-l", "0"),
    ]:
        status, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert status == 1 and out == "", argv
        assert "max_l" in err and "Traceback" not in err


def test_graph_record(capsys):
    status, out, _ = run_cli(
        capsys, "graph", "--route", "2,4,4,3,1,3", "--no-timestamp"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["route"] == "2,4,4,3,1,3"
    assert payload["black_set"] == [1, 2, 4]
    assert payload["seed_route"] == "1,3,3,2"
    assert payload["seed_class"] == {"kind": "other", "ring_length": None}
    status, out, _ = run_cli(
        capsys, "graph", "--route", "1,2", "--second", "1,2", "--no-timestamp"
    )
    assert json.loads(out)["seed_class"]["kind"] == "double_two_d_ring"


def test_simulate_json_and_csv(capsys):
    args = ["simulate", "--p", "1", "--n", "2", "--l", "1", "--reps", "200",
            "--dist", "rademacher", "--seed", "3", "--no-timestamp"]
    status, out, _ = run_cli(capsys, *args)
    assert status == 0
    payload = json.loads(out)
    assert payload["means"][0]["exact"] == 1.0
    status, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,l1,l2,empirical,exact,se,z"
    assert lines[1].startswith("mean,1,")


def test_distribution_aliases_agree_across_commands(capsys):
    args = ["simulate", "--p", "2", "--n", "3", "--l", "1,2", "--reps", "200",
            "--seed", "5", "--no-timestamp", "--dist"]
    status, normal, _ = run_cli(capsys, *args, "normal")
    assert status == 0
    _, gaussian, _ = run_cli(capsys, *args, "gaussian")
    assert normal == gaussian


def test_determinism(capsys):
    args = ["mean-closed", "--l", "3", "--p", "2", "--n", "5", "--dist", "uniform",
            "--no-timestamp"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    # without the flag a timestamp field appears
    _, stamped, _ = run_cli(capsys, *args[:-1])
    assert "timestamp" in json.loads(stamped)


def test_outputs_parse_as_json(capsys):
    invocations = [
        ["mean-closed", "--l", "2", "--p", "1", "--n", "3"],
        ["mean-oracle", "--l", "1", "--p", "3", "--n", "5", "--dist", "gaussian"],
        ["mean-oracle", "--l", "2", "--p", "1", "--n", "3", "--dist", "uniform"],
        ["cov-closed", "--l1", "1", "--l2", "2", "--p", "2", "--n", "4"],
        ["bs-check", "--max-l", "4"],
        ["verify", "--suite", "vanishing", "--max-l", "3"],
        ["mp", "--l", "5", "--y", "2/3"],
        ["graph", "--route", "1,2,1,3"],
    ]
    for argv in invocations:
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0, argv
        json.loads(out)


def test_usage_errors_exit_one(capsys):
    status, _, err = run_cli(capsys, "mean-oracle", "--l", "2", "--p", "2", "--n", "3")
    assert status == 1 and "moments" in err
    status, _, err = run_cli(capsys, "mean-closed", "--l", "2", "--p", "5", "--n", "3")
    assert status == 1  # p > n
    status, _, err = run_cli(capsys, "mp", "--l", "2", "--wat", "1")
    assert status == 1
    status, _, err = run_cli(
        capsys, "mean-oracle", "--l", "5", "--p", "2", "--n", "5", "--dist", "gaussian"
    )
    assert status == 1 and "cost guard" in err


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_simulate_large_powers_stay_finite_or_exit_one(capsys):
    args = ("simulate", "--reps", "100", "--dist", "gaussian", "--seed", "1",
            "--no-reference", "--no-timestamp")
    status, out, err = run_cli(capsys, *args, "--p", "2", "--n", "100", "--l", "160")
    assert status == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    for stat in payload["means"] + payload["covariances"]:
        assert math.isfinite(stat["empirical"]) and math.isfinite(stat["se"]), stat
    status, out, err = run_cli(capsys, *args, "--p", "2", "--n", "3", "--l", "400")
    assert status == 1
    assert "Infinity" not in out and "NaN" not in out
    assert "tr(S^400)" in err and "Traceback" not in err


def test_cost_guard_hint_names_the_flag(capsys):
    status, out, err = run_cli(
        capsys, "simulate", "--p", "2", "--n", "3", "--l", "9", "--reps", "200",
        "--dist", "gaussian", "--seed", "1", "--no-timestamp",
    )
    assert status == 1 and out == ""
    assert "cost guard" in err and "--allow-large" in err


def test_workers_option_is_gone(capsys):
    status, out, err = run_cli(
        capsys, "mean-oracle", "--l", "2", "--p", "2", "--n", "3",
        "--dist", "gaussian", "--workers", "2",
    )
    assert status == 1 and out == ""
    assert "--workers" in err and "Traceback" not in err


def test_out_of_memory_exits_one(capsys, monkeypatch):
    args = ("simulate", "--p", "2", "--n", "3", "--l", "1", "--reps", "200",
            "--dist", "gaussian", "--seed", "1", "--no-reference", "--no-timestamp")
    for exc, message in ((MemoryError("Unable to allocate 8.00 TiB"),
                          "error: out of memory: Unable to allocate 8.00 TiB"),
                         (MemoryError(), "error: out of memory")):
        def fail(*_args, exc=exc):
            raise exc

        monkeypatch.setattr(montecarlo, "simulate", fail)
        status, out, err = run_cli(capsys, *args)
        assert status == 1 and out == ""
        assert err.strip() == message and "Traceback" not in err


def test_out_of_memory_in_a_helper_thread_exits_one(capsys, monkeypatch):
    # the calling thread waits in its first chunk until a helper thread has
    # failed, so the error is raised in a helper and reaches the CLI
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    failed = threading.Event()
    draw = montecarlo._draw_batch

    def draw_or_fail(*args):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=30)
            return draw(*args)
        failed.set()
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(montecarlo, "_draw_batch", draw_or_fail)
    status, out, err = run_cli(
        capsys, "simulate", "--p", "2", "--n", "3", "--l", "1", "--reps", "3000",
        "--dist", "gaussian", "--seed", "1", "--no-reference", "--no-timestamp",
    )
    assert status == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 8.00 TiB\n"
    assert threading.active_count() == 1


def test_python_m_runs_the_cli(capsys):
    _, expected, _ = run_cli(capsys, "mp", "--l", "2", "--y", "1/2", "--no-timestamp")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tracemoments", "mp", "--l", "2", "--y", "1/2",
         "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == expected


# each exact subcommand once, at a small size
EXACT_COMMANDS = (
    ("mean-closed", "--l", "2", "--p", "2", "--n", "3", "--alpha", "3"),
    ("mean-oracle", "--l", "2", "--p", "2", "--n", "3", "--dist", "gaussian"),
    ("cov-closed", "--l1", "1", "--l2", "1", "--p", "2", "--n", "4", "--dist", "rademacher"),
    ("cov-oracle", "--l1", "1", "--l2", "1", "--p", "2", "--n", "4", "--dist", "gaussian"),
    ("census", "--l", "2", "--b", "1"),
    ("verify", "--suite", "taylor", "--max-l", "3"),
    ("mp", "--l", "2", "--y", "1/2"),
    ("bs-check", "--max-l", "3"),
    ("graph", "--route", "2,4,4,3,1,3"),
)
NUMPY_FREE_CHECK = """
import contextlib, io, json, sys
from tracemoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main([*argv, "--no-timestamp"]) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("numpy", "tracemoments.montecarlo") if m in sys.modules]
print(json.dumps({"statuses": statuses, "loaded": loaded}))
"""


def test_exact_subcommands_never_load_numpy():
    # a fresh process, since this one may have loaded numpy already
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHECK, json.dumps(EXACT_COMMANDS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"statuses": [0] * len(EXACT_COMMANDS), "loaded": []}


def test_monte_carlo_names_load_on_first_use():
    from tracemoments import SimulationConfig

    assert tracemoments.montecarlo is montecarlo
    assert SimulationConfig is montecarlo.SimulationConfig
    for name in ("ExactReferences", "SimulationReport", "oracle_references", "simulate"):
        assert getattr(tracemoments, name) is getattr(montecarlo, name)
    with pytest.raises(AttributeError, match="nope"):
        tracemoments.nope


def test_warnings_print_one_line_each(capsys):
    argv = ("mean-oracle", "--l", "2", "--p", "4", "--n", "8", "--no-timestamp")
    for moments, value, message in (
        ("1,0,1,0,0", "5/1", "fourth moment 0 is below 1, impossible for a real "
                             "unit-variance distribution"),
        ("1,0,1,2,2", "6/1", "moments 1, 0, 1, 2, 2 are impossible for a real "
                             "distribution: their Hankel matrix m_(i+j) is not "
                             "positive semidefinite"),
    ):
        for _ in range(2):  # shown on every call, not once per process
            status, out, err = run_cli(capsys, *argv, "--moments", moments)
            assert status == 0 and json.loads(out)["value"] == value
            assert err == f"warning: {message}\n"


def test_verify_failure_exits_two(capsys, monkeypatch):
    def fake_run_suite(name, max_l=None, allow_large=False):
        return {"suite": name, "cases": 1, "failures": ["synthetic"]}

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    status, out, _ = run_cli(capsys, "verify", "--suite", "taylor", "--no-timestamp")
    assert status == 2
    assert json.loads(out)["failures"] == ["synthetic"]


# help, and usage errors raised by the top-level parser and by a subparser
PARSER_CASES = (
    ("--help",), ("mean-oracle", "--help"), ("simulate", "--help"), ("foo",),
    ("mean-oracle", "--l", "x"), ("mp", "--l", "2", "--y", "1/2", "--wat", "1"),
    ("verify", "--suite", "nope"), (),
)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_subparser_parses_as_the_full_parser(capsys, monkeypatch, argv):
    def outcome():
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # --help
            status = ("exit", exc.code)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    got = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == outcome()
