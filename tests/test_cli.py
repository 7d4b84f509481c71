"""CLI surface: output schemas, determinism, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemoments
from tracemoments import cli, enumeration, montecarlo
from tracemoments.closedform import theorem1_mean


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


@pytest.mark.parametrize("argv, message", [
    (("mean-oracle", "--l", "2", "--moments", "1,0,1,0,3"), "--moments and --dist"),
    (("cov-oracle", "--l1", "1", "--l2", "1", "--moments", "1,0,1,0,3"),
     "--moments and --dist"),
    (("mean-closed", "--l", "2", "--alpha", "3"), "--alpha and --dist"),
    (("cov-closed", "--l1", "1", "--l2", "1", "--alpha", "3"), "--alpha and --dist"),
], ids=["mean-oracle", "cov-oracle", "mean-closed", "cov-closed"])
def test_dist_with_explicit_moments_is_rejected(capsys, argv, message):
    # every subcommand rejects two sources of one moment, as census rejects
    # --l with --l1/--l2
    status, out, err = run_cli(
        capsys, *argv, "--p", "2", "--n", "3", "--dist", "gaussian", "--no-timestamp"
    )
    assert status == 1 and out == ""
    assert err == f"error: {message} are mutually exclusive\n"


def test_census_rejects_both_shapes(capsys):
    status, out, err = run_cli(
        capsys, "census", "--l", "2", "--l1", "1", "--l2", "1", "--b", "1", "--no-timestamp"
    )
    assert status == 1 and out == ""
    assert err == "error: --l and --l1/--l2 are mutually exclusive\n"


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
    # the reader is gone before the command writes, as with `| head -c 10`;
    # both module entry points of the command line exit the same way
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for module in ("tracemoments.cli", "tracemoments"):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", module, "verify", "--suite", "taylor",
                 "--no-timestamp"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b""), module


class _ClosedReader:
    """A standard output whose reader is gone, over a stand-in descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_reader_in_process_exits_one_quietly(capsys, monkeypatch):
    # the write of the JSON line fails; main points the descriptor at devnull
    with tempfile.TemporaryFile() as stand_in:
        monkeypatch.setattr(sys, "stdout", _ClosedReader(stand_in.fileno()))
        status = cli.main(["mp", "--l", "2", "--y", "1/2", "--no-timestamp"])
    assert status == 1
    assert capsys.readouterr().err == ""


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


def test_json_hook_writes_fractions_and_dataclasses_only():
    with pytest.raises(TypeError, match="frozenset"):
        json.dumps(frozenset({1, 2}), default=cli._json)
    assert json.dumps([Fraction(3), Fraction(-2, 6)], default=cli._json) == '["3/1", "-1/3"]'
    _, terms = theorem1_mean(3, 2, 5)
    assert json.loads(json.dumps(terms, default=cli._json))[1] == {
        "b": 2,
        "tree_part": "12/1",
        "ring_part": {"c0": "24/1", "c1": "6/1"},
        "error_order": "O(p^2/n^3)",
    }
    assert list(json.loads(json.dumps(terms[1], default=cli._json))) == [
        "b", "tree_part", "ring_part", "error_order"
    ]


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


def test_cost_guard_names_the_limit_it_applied(capsys):
    for argv, message in [
        (("census", "--l", "7", "--b", "2"),
         "l=7 exceeds the cost guard 5; pass --allow-large (allow_large=True in Python)"
         " to go one step further"),
        (("census", "--l", "7", "--b", "2", "--allow-large"),
         "l=7 exceeds the cost guard 6 with --allow-large"),
        (("cov-oracle", "--l1", "3", "--l2", "3", "--p", "2", "--n", "3",
          "--dist", "gaussian", "--allow-large"),
         "l1+l2=6 exceeds the cost guard 5 with --allow-large"),
    ]:
        status, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert status == 1 and out == "", argv
        assert err == f"error: {message}\n"


# input checks that the CLI reports as errors, each with its exact message
VALIDATION_ERRORS = [
    (("cov-oracle", "--l1", "1", "--l2", "1", "--p", "2", "--n", "3", "--moments", "1,0,1"),
     "moment list covers order 2, need 4"),
    (("mean-oracle", "--l", "0", "--p", "2", "--n", "3", "--dist", "gaussian"),
     "l, p, n must be positive, got (0, 2, 3)"),
    (("cov-oracle", "--l1", "0", "--l2", "1", "--p", "2", "--n", "3", "--dist", "gaussian"),
     "l1, l2, p, n must be positive, got (0, 1, 2, 3)"),
    (("census", "--l1", "1", "--l2", "1", "--b", "3"), "need 1 <= b <= l1+l2, got b=3"),
    (("simulate", "--p", "2", "--n", "3", "--l", "1", "--reps", "200", "--dist", "gaussian",
      "--seed", "18446744073709551616"), "rng_seed must fit in 64 bits"),
]


@pytest.mark.parametrize("argv, message", VALIDATION_ERRORS,
                         ids=["moment-order", "mean-sizes", "cov-sizes", "census-b", "seed"])
def test_validation_errors_exit_one_with_their_message(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert status == 1 and out == ""
    assert err == f"error: {message}\n"


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


def test_simulate_larger_than_memory_exits_one_before_allocating(capsys, monkeypatch):
    # 20 dense powers of 300 x 300, two replications a chunk: about 30 MB of
    # buffers, refused on a machine of 10 MB without allocating them
    monkeypatch.setattr(montecarlo, "_physical_memory", lambda: 10_000_000)
    tracemalloc.start()
    try:
        status, out, err = run_cli(
            capsys, "simulate", "--p", "300", "--n", "300", "--l", "40", "--reps", "200",
            "--dist", "uniform", "--seed", "1", "--no-reference", "--no-timestamp",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1 and out == ""
    assert err.startswith("error: out of memory: this run needs 30.")
    assert err.endswith(" MB of arrays, more than the 10.0 MB of physical memory\n")
    assert peak < 1_000_000, peak


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
# a well-formed call loads neither numpy nor argparse; a usage error then
# loads argparse, which reports it
NUMPY_FREE_CHECK = """
import contextlib, io, json, sys
from tracemoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main([*argv, "--no-timestamp"]) for argv in json.loads(sys.argv[1])]
loaded = [m for m in ("numpy", "tracemoments.montecarlo", "argparse", "gettext")
          if m in sys.modules]
with contextlib.redirect_stderr(io.StringIO()) as err:
    bad = cli.main(["mean-oracle", "--l", "x"])
print(json.dumps({"statuses": statuses, "loaded": loaded, "bad": [bad, err.getvalue()]}))
"""


def test_exact_subcommands_never_load_numpy():
    # a fresh process, since this one may have loaded numpy already
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHECK, json.dumps(EXACT_COMMANDS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    status, err = result.pop("bad")
    assert result == {"statuses": [0] * len(EXACT_COMMANDS), "loaded": []}
    assert status == 1
    assert err.startswith("usage: tracemoments mean-oracle [-h] [--no-timestamp] --l L")
    assert err.endswith("\nerror: argument --l: invalid int value: 'x'\n")


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
    failing = "taylor"

    def fake_run_suite(name, max_l=None, allow_large=False):
        failures = ["synthetic"] if name == failing else []
        return {"suite": name, "cases": 1, "failures": failures}

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    status, out, _ = run_cli(capsys, "verify", "--suite", "taylor", "--no-timestamp")
    assert status == 2
    assert json.loads(out)["failures"] == ["synthetic"]
    # bs-check fails when either of its two parts does, and says which
    for failing in ("bs-mean", "bs-cov"):
        status, out, _ = run_cli(capsys, "bs-check", "--no-timestamp")
        assert status == 2, failing
        assert json.loads(out) == {"op": "bs-check", **{
            part: {"cases": 1, "failures": ["synthetic"] if f"bs-{part}" == failing else []}
            for part in ("mean", "cov")
        }}


# one cheap call of every command
COMMAND_CASES = {
    "mean-closed": ("--l", "2", "--p", "2", "--n", "3"),
    "mean-oracle": ("--l", "2", "--p", "2", "--n", "3", "--dist", "gaussian"),
    "cov-closed": ("--l1", "1", "--l2", "1", "--p", "2", "--n", "3"),
    "cov-oracle": ("--l1", "1", "--l2", "1", "--p", "2", "--n", "3", "--dist", "gaussian"),
    "census": ("--l", "2", "--b", "1"),
    "simulate": ("--p", "2", "--n", "3", "--l", "1", "--reps", "100", "--dist", "gaussian",
                 "--seed", "1", "--no-reference"),
    "verify": ("--suite", "taylor", "--max-l", "3"),
    "mp": ("--l", "2", "--y", "1/2"),
    "bs-check": ("--max-l", "3"),
    "graph": ("--route", "1,2,1,3"),
}


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_each_command_leads_its_json_with_its_name(capsys, name):
    status, out, _ = run_cli(capsys, name, *COMMAND_CASES[name])
    assert status == 0
    payload = json.loads(out)
    assert list(payload)[0] == "op" and payload["op"] == name
    assert list(payload)[-1] == "timestamp"


@pytest.mark.parametrize(
    "suite,key,cases,failure",
    [
        ("mean-coeffs", ((3,), 3, 2), 10, "mean coefficient law fails at l=3, b=2"),
        ("cov-coeffs", ((1, 2), 3, 2), 20,
         "covariance coefficient law fails at l1=1, l2=2, b=2"),
    ],
    ids=["mean-coeffs", "cov-coeffs"],
)
def test_a_stray_moment_fails_its_case_and_exits_two(
    capsys, monkeypatch, suite, key, cases, failure
):
    # one inner sum of the oracle gains an m6, which no coefficient law holds
    census = enumeration.signature_census

    def stray(lengths, r, b):
        polynomial = census(lengths, r, b)
        return {**polynomial, (6,): 1} if (lengths, r, b) == key else polynomial

    monkeypatch.setattr(enumeration, "signature_census", stray)
    status, out, err = run_cli(capsys, "verify", "--suite", suite, "--no-timestamp")
    assert (status, err) == (2, "")
    assert json.loads(out) == {
        "op": "verify", "suite": suite, "cases": cases, "failures": [failure]
    }


# help, and usage errors raised by the top-level parser, by a command's
# parser and for leftover arguments; every command's help and bare call
PARSER_CASES = (
    ("--help",), ("mean-oracle", "--help"), ("simulate", "--help"), ("foo",),
    ("mean-oracle", "--l", "x"), ("mp", "--l", "2", "--y", "1/2", "--wat", "1"),
    ("verify", "--suite", "nope"), (),
    ("mean-oracle", "--l", "2", "--p", "4", "--n", "8", "--dist", "gaussian", "extra"),
    *((name, "--help") for name in cli._COMMANDS if name not in ("mean-oracle", "simulate")),
    *((name,) for name in cli._COMMANDS),
)


class _FixedClock(datetime):
    @classmethod
    def now(cls, tz=None):  # a bare bs-check prints its timestamp
        return datetime(2000, 1, 1, tzinfo=tz)


# the well-formed call of every command, which the command table reads
WELL_FORMED_CASES = tuple((name, *argv, "--no-timestamp") for name, argv in COMMAND_CASES.items())


@pytest.mark.parametrize("argv", PARSER_CASES + WELL_FORMED_CASES, ids=" ".join)
def test_parse_answers_as_the_full_parser(capsys, monkeypatch, argv):
    # the reference run sends every call through the full parser
    def outcome():
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # --help
            status = ("exit", exc.code)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    monkeypatch.setattr(cli, "datetime", _FixedClock)
    for columns in ("80", "200"):  # the help and usage width
        monkeypatch.setenv("COLUMNS", columns)
        with monkeypatch.context() as full:
            full.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
            expected = outcome()
        assert outcome() == expected


def test_well_formed_calls_build_no_parser(capsys, monkeypatch):
    full = cli.build_parser
    built = []

    def refuse():
        raise AssertionError("built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for name, argv in COMMAND_CASES.items():
        assert cli.main([name, *argv, "--no-timestamp"]) == 0, name
    assert cli.main(["mean-oracle", "--l", "5", "--p", "2", "--n", "5",
                     "--dist", "gaussian"]) == 1  # refused by the handler
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cost guard" in err and "usage" not in err

    # help and every usage error go to the full parser; help exits 0, a
    # usage error returns 1, and the bare bs-check is well formed
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or full())
    for argv in PARSER_CASES:
        if "--help" in argv:
            with pytest.raises(SystemExit, match="^0$"):
                cli.main(list(argv))
        else:
            assert cli.main(list(argv)) == (0 if argv == ("bs-check",) else 1), argv
    assert len(built) == len(PARSER_CASES) - 1
    capsys.readouterr()
    # whose usage line lists every command for an unknown command and for
    # leftover arguments
    for argv in (("foo",), ("mp", "--l", "2", "--y", "1/2", "--wat", "1")):
        assert cli.main(list(argv)) == 1
        assert capsys.readouterr().err.startswith("usage: tracemoments [-h]\n")


# values a flag of _COMMANDS may take in a well-formed call, and values it may not
_INT_VALUES = ("0", "3", "12", "+4", " 5"), ("x", "1.5", "-3")
_TEXT_VALUES = ("gaussian", "1/2", "1,0,3", "2,4,4,3,1,3", "a=b", ""), ("-1",)
# what makes a call ill formed, though argparse may still accept it
_FLAWS = ("bad value", "repeat", "equals", "prefix", "dash", "drop value", "drop flag",
          "unknown", "help", "extra", "double dash")


def _values(keywords):
    if "choices" in keywords:
        return tuple(keywords["choices"]), ("nope",)
    return _INT_VALUES if keywords.get("type") is int else _TEXT_VALUES


@st.composite
def _calls(draw, name):
    """(argv, flaw): the command `name` with a draw of its flags, and what was
    done to make the call ill formed, or None."""
    flags = dict((cli._NO_TIMESTAMP, *cli._COMMANDS[name][2]))
    items = []
    for flag, keywords in flags.items():
        if keywords.get("required") or draw(st.booleans()):
            switch = keywords.get("action") == "store_true"
            items.append([flag] if switch else [flag, draw(st.sampled_from(_values(keywords)[0]))])
    items = draw(st.permutations(items))
    flaw = draw(st.sampled_from((None,) * 4 + _FLAWS))
    # where the flaw goes: a flag with a value, any flag, or any place
    if flaw in ("bad value", "equals", "drop value"):
        places = [at for at, item in enumerate(items) if len(item) == 2]
    elif flaw in _FLAWS[:7]:
        places = range(len(items))
    else:
        places = range(len(items) + 1)
    if not places:
        flaw = None
    elif flaw is not None:
        at = draw(st.sampled_from(places))
    if flaw == "bad value":
        items[at][1] = draw(st.sampled_from(_values(flags[items[at][0]])[1]))
    elif flaw == "repeat":
        items.append(items[at])
    elif flaw == "equals":
        items[at] = ["=".join(items[at])]
    elif flaw == "prefix":
        flag = items[at][0]  # "--l" has no prefix, so it gains a letter
        cut = draw(st.integers(3, len(flag) - 1)) if len(flag) > 3 else None
        items[at] = [flag[:cut] if cut else flag + "x", *items[at][1:]]
    elif flaw == "dash":  # a "-"-led value, or one after a switch
        items[at] = [items[at][0], "-" + items[at][1]] if len(items[at]) == 2 else [
            *items[at], "-1"
        ]
    elif flaw == "drop value":
        items[at] = items[at][:1]
    elif flaw == "drop flag":
        del items[at]
    elif flaw is not None:
        token = {"unknown": "--wat", "extra": "extra", "double dash": "--",
                 "help": draw(st.sampled_from(("--help", "-h")))}[flaw]
        items.insert(at, [token])
    return [name, *(token for item in items for token in item)], flaw


@pytest.mark.parametrize("name", cli._COMMANDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_fast_read_declines_or_agrees_with_argparse(name, data):
    argv, flaw = data.draw(_calls(name))
    fast = cli._read(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(cli.build_parser().parse_args(argv))
    except (ValueError, SystemExit):  # a usage error, or help
        assert fast is None, argv
        return
    assert fast is not None or flaw is not None, argv  # only a flawed call declines
    if fast is not None:
        del expected["command"]
        assert vars(fast) == expected, argv
