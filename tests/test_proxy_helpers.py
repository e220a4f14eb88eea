"""The Jacobian source's helper processes: they score what the source would,
start only where there are spare CPUs, and never outlive a command."""

import json
import os
import signal
import time

import numpy as np
import pytest

from gea_nas import experiment_cli, zero_proxy
from gea_nas.arch_space import ArchEncoding, Operation, live_index
from gea_nas.experiment_cli import main
from gea_nas.network_builder import SkeletonConfig
from gea_nas.zero_proxy import JacobianProxySource, ProxyConfig, score_architecture

from process_helpers import time_limit

NO, SK, C1, C3, AP = tuple(Operation)
PARENT = os.getpid()
SEARCH = ["search", "--mode", "proxy", "--P", "3"]


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def unreaped(pid) -> bool:
    """Whether pid is a child of this process that nothing has reaped yet;
    it looks without reaping."""
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def count_forks(monkeypatch) -> tuple[list, list]:
    """Patch os.fork to record, at each fork, how many earlier children are
    not yet reaped, and then the new child's pid."""
    alive, pids, fork = [], [], os.fork

    def counting_fork():
        alive.append(sum(map(unreaped, pids)))
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return alive, pids


def all_reaped(pids) -> bool:
    return bool(pids) and not any(map(unreaped, pids))


def results(out) -> dict:
    """Each result file of a search directory, its "timing" section removed."""
    docs = {}
    for path in sorted(out.iterdir()):
        doc = json.loads(path.read_text())
        doc.pop("timing")
        docs[path.name] = doc
    return docs


def only_helpers_score(monkeypatch):
    """This process takes no live index off the queue, so the helpers score them all."""
    drain = JacobianProxySource._drain
    monkeypatch.setattr(JacobianProxySource, "_drain",
                        lambda self: {} if os.getpid() == PARENT else drain(self))


@pytest.mark.parametrize("hw,cells", [
    (8, [(C3, C1, SK, AP, C3, C1), (C1, NO, C3, SK, AP, C3), (SK, SK, SK, NO, NO, NO)]),
    (32, [(NO, NO, NO, C1, NO, NO), (AP, NO, NO, SK, C1, NO), (SK, SK, SK, NO, NO, NO)]),
])
def test_helper_scores_equal_in_process_scores(monkeypatch, hw, cells):
    # (SK, SK, SK, NO, NO, NO) has no path to node 3: an invalid score. At
    # 32x32 a batch norm sums 32768 values, past OpenBLAS's threaded-ddot
    # size, so the kernels' own one-thread pin is what makes the in-process
    # score, at the default thread count, equal the helper's.
    cpus(monkeypatch, 2)
    only_helpers_score(monkeypatch)
    config = ProxyConfig(skeleton=SkeletonConfig(image_hw=hw))
    archs = [ArchEncoding(ops) for ops in cells]
    source = JacobianProxySource(None, config, seed=3)
    try:
        helper = source.score_all(archs)
    finally:
        source.close()
    local = [score_architecture(
        ArchEncoding.from_index(live_index(arch)), source.batch, config,
        np.random.default_rng(np.random.SeedSequence((3, 0, 2, live_index(arch))))).z
        for arch in archs]
    assert list(map(repr, helper)) == list(map(repr, local))
    assert helper[-1] == float("-inf") and all(np.isfinite(helper[:-1]))


def test_one_cpu_starts_no_process_and_writes_the_same_results(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    assert main(SEARCH + ["--C", "12", "--seeds", "0,1", "--out", str(tmp_path / "two")]) == 0
    cpus(monkeypatch, 1)
    forks, _ = count_forks(monkeypatch)
    assert main(SEARCH + ["--C", "12", "--seeds", "0,1", "--out", str(tmp_path / "one")]) == 0
    assert forks == []
    assert results(tmp_path / "one") == results(tmp_path / "two")


def test_three_cpus_start_two_helpers_per_run(tmp_path, monkeypatch):
    cpus(monkeypatch, 3)
    forks, pids = count_forks(monkeypatch)
    assert main(SEARCH + ["--C", "12", "--seeds", "0,1", "--out", str(tmp_path / "out")]) == 0
    assert forks == [0, 1, 0, 1]  # two per run; the first run's ended before the second's
    assert all_reaped(pids)


def test_no_more_helpers_than_cells_beyond_the_first(monkeypatch):
    cpus(monkeypatch, 3)
    forks, pids = count_forks(monkeypatch)
    source = JacobianProxySource(None, ProxyConfig(), seed=0)
    try:
        source.score_all([ArchEncoding.from_index(i) for i in (77, 78)])  # one live network
        assert forks == []
        source.score_all([ArchEncoding.from_index(i) for i in (78, 7777, 15624)])  # two new ones
        assert forks == [0]
    finally:
        source.close()
    assert all_reaped(pids)


@pytest.mark.parametrize("command", [
    SEARCH + ["--C", "12", "--seeds", "0,1"],
    ["sweep", "--mode", "proxy", "--c-values", "8,12", "--P", "3", "--seeds", "0,1"],
])
def test_no_helper_outlives_a_command(tmp_path, monkeypatch, command):
    cpus(monkeypatch, 2)
    forks, pids = count_forks(monkeypatch)
    out = tmp_path / ("s.csv" if command[0] == "sweep" else "out")
    with time_limit(60):
        assert main(command + ["--out", str(out)]) == 0
    assert forks and max(forks) == 0  # one helper at a time
    assert all_reaped(pids)


def test_a_failing_last_seed_ends_its_helpers(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 2)
    _, pids = count_forks(monkeypatch)
    run = experiment_cli.run_search

    def fails_on_seed_2(config, proxy, fitness):
        if config.seed == 2:
            proxy.score_all([ArchEncoding.from_index(i) for i in range(0, 15625, 97)])
            assert unreaped(pids[-1])
            raise MemoryError()
        return run(config, proxy, fitness)

    monkeypatch.setattr(experiment_cli, "run_search", fails_on_seed_2)
    out = tmp_path / "out"
    with time_limit(60):
        assert main(SEARCH + ["--C", "12", "--seeds", "0-2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert sorted(p.name for p in out.iterdir()) == ["gea_seed0.json", "gea_seed1.json"]
    assert all_reaped(pids)


def slow_in_parent(monkeypatch, in_helper):
    """score_architecture takes 5 ms longer here, so that the helper takes
    cells, and calls in_helper(number of its calls so far) in a helper."""
    score, calls = zero_proxy.score_architecture, []

    def scored(*args):
        if os.getpid() == PARENT:
            time.sleep(0.005)
        else:
            calls.append(None)
            in_helper(len(calls))
        return score(*args)

    monkeypatch.setattr(zero_proxy, "score_architecture", scored)


def test_a_killed_helper_ends_in_an_error_line(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 2)
    _, pids = count_forks(monkeypatch)

    def die(calls):
        if calls == 3:
            os.kill(os.getpid(), signal.SIGKILL)

    slow_in_parent(monkeypatch, die)
    with time_limit(60):
        assert main(SEARCH + ["--C", "30", "--seeds", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: proxy helper process")
    assert "exit code -9" in err[0]
    assert all_reaped(pids)


def test_a_helper_killed_between_batches_fails_the_next_batch(monkeypatch):
    cpus(monkeypatch, 2)
    _, pids = count_forks(monkeypatch)
    source = JacobianProxySource(None, ProxyConfig(), seed=5)
    try:
        source.score_all([ArchEncoding.from_index(i) for i in range(0, 15625, 997)])
        os.kill(pids[0], signal.SIGKILL)
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        with pytest.raises(ChildProcessError, match=rf"process {pids[0]} .*exit code -9"):
            source.score_all([ArchEncoding.from_index(i) for i in range(1, 15625, 997)])
    finally:
        source.close()
    assert all_reaped(pids)


@pytest.mark.parametrize("error,line", [(MemoryError, "error: out of memory: allocation failed"),
                                        (ValueError, "error: raised in a helper")])
def test_an_exception_in_a_helper_reaches_the_parent_with_its_type(
        tmp_path, capsys, monkeypatch, error, line):
    cpus(monkeypatch, 2)
    _, pids = count_forks(monkeypatch)

    def fail(calls):
        raise error() if error is MemoryError else error("raised in a helper")

    slow_in_parent(monkeypatch, fail)
    with time_limit(60):
        assert main(SEARCH + ["--C", "30", "--seeds", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert all_reaped(pids)


def test_a_source_scores_again_after_a_failed_batch(monkeypatch):
    cpus(monkeypatch, 2)
    _, pids = count_forks(monkeypatch)
    score, failed = zero_proxy.score_architecture, []

    def fails_once_here(*args):
        if os.getpid() == PARENT and not failed:
            failed.append(None)
            raise ValueError("once")
        return score(*args)

    monkeypatch.setattr(zero_proxy, "score_architecture", fails_once_here)
    archs = [ArchEncoding.from_index(i) for i in range(0, 15625, 311)]
    source = JacobianProxySource(None, ProxyConfig(), seed=4)
    with pytest.raises(ValueError, match="once"):
        source.score_all(archs)
    assert all_reaped(pids)  # no reply of that batch is left
    try:
        again = source.score_all(archs)
    finally:
        source.close()
    cpus(monkeypatch, 1)
    assert again == JacobianProxySource(None, ProxyConfig(), seed=4).score_all(archs)
