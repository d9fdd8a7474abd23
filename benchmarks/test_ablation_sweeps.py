"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each sweep isolates one knob of the memory-aware design space and checks
the trend the paper's analysis predicts:

* **cache size** — DRAM traffic is a step function of the optimization
  thresholds (1 MB / ~2*dnum MB / ~alpha MB), then flat: memory beyond the
  O(alpha) working set buys nothing.
* **dnum** — smaller dnum means fewer, larger digits: less key traffic per
  key switch (the core reason Table 5's optimum picks dnum=2).
* **fftIter** — more, smaller DFT stages cut per-stage matrix cost but
  consume more levels.
* **individual optimizations** — each MAD flag alone against the baseline,
  isolating its contribution (SimFHE's "toggle each optimization
  independently").

Every grid runs through :func:`repro.sweep.run_sweep` with the
``bootstrap.cost`` evaluator — the same declarative engine the CLI's
``repro sweep`` command uses — so these benchmarks also exercise the
sweep engine on every run.
"""

import pytest

from repro.params import BASELINE_JUNG, CkksParams
from repro.perf import MADConfig
from repro.sweep import SweepAxis, SweepSpec, build_preset, run_sweep


def _rows(spec: SweepSpec) -> list:
    """Evaluate a sweep and return its rows in canonical order."""
    return list(run_sweep(spec).values)


@pytest.mark.repro("Ablation: cache size")
def test_ablation_cache_size(benchmark):
    spec = build_preset("ablation-cache")

    def sweep():
        return {row["cache_mb"]: row["dram_gb"] for row in _rows(spec)}

    results = benchmark(sweep)
    print("\nBootstrap DRAM vs cache size (caching opts, baseline params)")
    for mb, gb in results.items():
        print(f"  {mb:6.1f} MB: {gb:7.1f} GB")
        benchmark.extra_info[f"{mb}MB"] = round(gb, 1)
    values = list(results.values())
    # Monotone non-increasing, and flat beyond the O(alpha) threshold.
    assert values == sorted(values, reverse=True)
    assert results[32] == results[64] == results[256]
    assert results[0.5] > results[32]


@pytest.mark.repro("Ablation: dnum")
def test_ablation_dnum(benchmark):
    dnums = (1, 2, 3, 4, 6)
    spec = SweepSpec(
        name="ablation-dnum",
        evaluator="bootstrap.cost",
        axes=(
            SweepAxis(
                "params",
                tuple(
                    CkksParams(
                        log_n=17, log_q=50, max_limbs=35, dnum=dnum, fft_iter=3
                    )
                    for dnum in dnums
                ),
            ),
        ),
        context={"config": MADConfig.all()},
    )

    def sweep():
        return dict(zip(dnums, _rows(spec)))

    results = benchmark(sweep)
    print("\nBootstrap vs dnum (L=35, q=50, all optimizations)")
    for dnum, row in results.items():
        print(
            f"  dnum={dnum}: keys {row['key_read_gb']:6.1f} GB, total "
            f"{row['dram_gb']:6.1f} GB, {row['giga_ops']:6.1f} Gops, "
            f"log PQ={row['log_qp']}"
        )
    # Smaller dnum -> fewer digits -> less switching-key traffic.
    key_gb = [results[d]["key_read_gb"] for d in dnums]
    assert key_gb == sorted(key_gb)
    # ...at the price of a larger raised modulus (security pressure).
    assert results[1]["log_qp"] > results[6]["log_qp"]


@pytest.mark.repro("Ablation: fftIter")
def test_ablation_fft_iter(benchmark):
    fft_iters = (2, 3, 4, 6, 8)
    spec = SweepSpec(
        name="ablation-fft-iter",
        evaluator="bootstrap.cost",
        axes=(
            SweepAxis(
                "params",
                tuple(
                    CkksParams(
                        log_n=17, log_q=50, max_limbs=40, dnum=2, fft_iter=f
                    )
                    for f in fft_iters
                ),
            ),
        ),
        context={"config": MADConfig.all()},
    )

    def sweep():
        return dict(zip(fft_iters, _rows(spec)))

    results = benchmark(sweep)
    print("\nBootstrap vs fftIter (L=40, q=50, dnum=2, all optimizations)")
    for fft_iter, row in results.items():
        print(
            f"  fftIter={fft_iter}: {row['dram_gb']:6.1f} GB, "
            f"log Q1 after bootstrap = {row['log_q1']}"
        )
    # More iterations leave fewer levels after bootstrapping...
    q1 = [results[f]["log_q1"] for f in fft_iters]
    assert q1 == sorted(q1, reverse=True)


@pytest.mark.repro("Ablation: individual optimizations")
def test_ablation_individual_flags(benchmark):
    flags = (
        "baseline",
        "cache_o1",
        "cache_beta",
        "cache_alpha",
        "mod_down_merge",
        "mod_down_hoist",
        "key_compression",
    )
    spec = SweepSpec(
        name="ablation-flags",
        evaluator="bootstrap.cost",
        axes=(SweepAxis("flag", flags),),
        context={"params": BASELINE_JUNG, "config": MADConfig.none()},
    )

    def sweep():
        return {
            row["flag"]: (row["giga_ops"], row["dram_gb"])
            for row in _rows(spec)
        }

    results = benchmark(sweep)
    print("\nEach optimization alone (baseline params)")
    base_ops, base_gb = results["baseline"]
    for name, (gops, gb) in results.items():
        print(f"  {name:16} {gops:7.1f} Gops  {gb:7.1f} GB")
        benchmark.extra_info[name] = round(gb, 1)
    # Every flag alone must not increase traffic; caching flags must not
    # change ops.
    for flag in flags[1:]:
        gops, gb = results[flag]
        assert gb <= base_gb + 1e-9
        if flag.startswith("cache"):
            assert gops == pytest.approx(base_ops)
