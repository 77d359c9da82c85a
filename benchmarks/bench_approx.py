"""T3 bench — approximation algorithms on the medium tier.

Local kernels benchmark the algorithms; one DataFrame input per
algorithm (on the small tier) benchmarks the DataFrame entry — a count
and one collect within the driver budget — so its overhead is on the
record (EXPERIMENTS.md discusses it).
"""
import pytest

from repro import datasets
from repro.core.approx import bs_approx, core_approx, ks_approx
from repro.graph.generators import to_spark

M = ["m-er", "m-pl", "m-plant", "l-pl"]


@pytest.mark.parametrize("name", M)
def test_bench_ks_approx(benchmark, name):
    benchmark.group = "T3-approx"
    e = datasets.load_local(name)
    r = benchmark.pedantic(ks_approx, args=(e,), kwargs={"eps": 0.5}, rounds=1, iterations=1)
    benchmark.extra_info.update({"dataset": name, "algo": "KS-Approx", "rho": r.rho})


@pytest.mark.parametrize("name", M)
def test_bench_bs_approx(benchmark, name):
    benchmark.group = "T3-approx"
    e = datasets.load_local(name)
    r = benchmark.pedantic(bs_approx, args=(e,), kwargs={"eps": 0.5}, rounds=1, iterations=1)
    benchmark.extra_info.update({"dataset": name, "algo": "BS-Approx", "rho": r.rho})


@pytest.mark.parametrize("name", M)
def test_bench_core_approx(benchmark, name):
    benchmark.group = "T3-approx"
    e = datasets.load_local(name)
    r = benchmark.pedantic(core_approx, args=(e,), rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"dataset": name, "algo": "Core-Approx", "rho": r.rho, "xy": r.stats["xy"]}
    )


def test_bench_bs_approx_dataframe(benchmark, spark):
    benchmark.group = "T3-approx-df"
    df = to_spark(spark, datasets.load_local("s-pl")).cache()
    df.count()
    r = benchmark.pedantic(bs_approx, args=(df,), kwargs={"eps": 1.0}, rounds=1, iterations=1)
    benchmark.extra_info.update({"dataset": "s-pl", "algo": "BS-Approx(DF)", "rho": r.rho})


def test_bench_core_approx_dataframe(benchmark, spark):
    benchmark.group = "T3-approx-df"
    df = to_spark(spark, datasets.load_local("xs-pl")).cache()
    df.count()
    r = benchmark.pedantic(core_approx, args=(df,), rounds=1, iterations=1)
    benchmark.extra_info.update({"dataset": "xs-pl", "algo": "Core-Approx(DF)", "rho": r.rho})
