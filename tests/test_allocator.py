import platform
import resource
import sys
from types import SimpleNamespace

import pytest

import geoverify
from geoverify.checks import RunConfig, run_suite

glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's"
)


def test_tuning_does_nothing_without_mallopt():
    assert geoverify._tune_malloc(SimpleNamespace()) is False


def test_tuning_stops_where_mallopt_is_inert():
    calls = []
    inert = SimpleNamespace(mallopt=lambda option, value: calls.append((option, value)) or 0)  # musl returns 0
    assert geoverify._tune_malloc(inert) is False
    assert calls == [(-3, 32 << 20)]


@glibc
def test_glibc_takes_both_thresholds():
    assert geoverify._tune_malloc() is True


@glibc
def test_warm_corollary_runs_take_almost_no_page_faults():
    # under glibc's dynamic thresholds each run took about 1200 minor faults, returning the build's memory to the OS
    # after every block and faulting it back in for the next
    run = lambda: run_suite("corollary", RunConfig(points=300))
    for _ in range(3):
        run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        run()
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10 < 50
