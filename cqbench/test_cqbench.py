"""Tests of the benchmark itself, at smoke size.

Run with ``PYTHONPATH=src python -m pytest -q cqbench``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_program_path()

WORKLOADS = ("plan-cold", "exec-warm", "session-maintained", "fabric-tcp",
             "deadline-mix")


def _cli(*args: str, cwd: Path = run.CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "cqbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_declaration(workload, trace):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.load_declared()["per_layer" if trace == "1"
                                   else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == declared
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
    context = json.loads(lines[-2])
    assert context["seed"] == 3 and context["knobs"]["env"] == {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_is_caught(workload):
    def corrupt(bench):
        first = next(s for s in bench.samples if s.kind == "count" and s.ok)
        first.result.count += 1

    outcome = run.run_workload(workload, 5, 0.2, False, "smoke",
                               inject=corrupt)
    assert outcome["problems"], "a corrupted answer passed the check"


def _listening_inodes() -> set:
    """Socket inodes of this process that are in the LISTEN state."""
    owned = set()
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            owned.add(target[len("socket:["):-1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in owned:
                listening.add(fields[9])
    return listening


def test_nothing_left_running_after_a_run():
    children_before = set(run.child_pids())
    listening_before = _listening_inodes()
    seen = {}

    def grab(bench):
        seen["address"] = bench.address

    outcome = run.run_workload("fabric-tcp", 7, 0.2, True, "smoke",
                               inject=grab)
    assert not outcome["problems"]
    assert not multiprocessing.active_children()
    assert set(run.child_pids()) <= children_before
    assert _listening_inodes() <= listening_before
    host, port = seen["address"].rsplit(":", 1)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=2).close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "cqbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _cli("--workload", "exec-warm", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
