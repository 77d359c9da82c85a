"""T5 bench — scalability series (power-law, n = 2500·2^k)."""
import pytest

from repro import datasets
from repro.core.approx import bs_approx, core_approx
from repro.core.exact import core_exact

SCALES = [0, 1, 2]


@pytest.mark.parametrize("scale", SCALES)
def test_bench_scal_core_approx(benchmark, scale):
    benchmark.group = "T5-scalability"
    e = datasets.scaled_powerlaw(scale)
    r = benchmark.pedantic(core_approx, args=(e,), rounds=1, iterations=1)
    benchmark.extra_info.update({"scale": scale, "m": e.m, "algo": "Core-Approx", "rho": r.rho})


@pytest.mark.parametrize("scale", SCALES)
def test_bench_scal_bs_approx(benchmark, scale):
    benchmark.group = "T5-scalability"
    e = datasets.scaled_powerlaw(scale)
    r = benchmark.pedantic(bs_approx, args=(e,), kwargs={"eps": 0.5}, rounds=1, iterations=1)
    benchmark.extra_info.update({"scale": scale, "m": e.m, "algo": "BS-Approx", "rho": r.rho})


@pytest.mark.parametrize("scale", SCALES)
def test_bench_scal_core_exact(benchmark, scale):
    benchmark.group = "T5-scalability"
    e = datasets.scaled_powerlaw(scale)
    r = benchmark.pedantic(core_exact, args=(e,), rounds=1, iterations=1)
    benchmark.extra_info.update({"scale": scale, "m": e.m, "algo": "Core-Exact", "rho": r.rho})
