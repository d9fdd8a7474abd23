"""Every report is a pure function of its inputs, whatever the hash seed.

The committed baselines and the sweep fingerprints rest on one
contract: a report depends only on what the command was asked to
compute.  Python randomises ``str`` hashing per process, so a report
that leans on set iteration order, on dict order built from a set, or
on ``hash()`` changes with ``PYTHONHASHSEED``.  This test runs each
report producer as its own ``python -m repro`` process under four hash
seeds and requires the canonical reports
(:func:`~repro.obs.telemetry.strip_volatile`, then ``json.dumps`` with
sorted keys) to be identical, memo statistics included.

Clock, pid and entropy leaks differ on every run, so they fail here as
well.  Every sweep evaluates its points in one process, in canonical
order, so there is no completion order left to leak.

The second half runs the same check on small stand-alone producers with
known bugs, so the check is shown to catch set-order and ``hash()``-order
bugs and to ignore what is not observable (dict key order, volatile
fields).
"""

import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.obs.telemetry import strip_volatile

SRC = Path(repro.__file__).resolve().parent.parent
BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

SEEDS = (0, 1, 2, 3)

#: Test id → (``python -m repro`` argv, the report files it writes).
PRODUCERS = {
    "trace": (("trace", "bootstrap", "--out", "trace.json",
               "--report", "run.json"), ("run.json",)),
    "sweep": (("sweep", "table5", "--quick", "--out", "sweep.json",
               "--report", "run.json"), ("sweep.json", "run.json")),
    # One sweep per evaluator: search (above), memsim, ablation, Fig. 6.
    "memsim-ladder": (("sweep", "memsim-ladder", "--quick",
                       "--out", "sweep.json", "--report", "run.json"),
                      ("sweep.json", "run.json")),
    "ablation-cache": (("sweep", "ablation-cache", "--quick",
                        "--out", "sweep.json", "--report", "run.json"),
                       ("sweep.json", "run.json")),
    "fig6-lr": (("sweep", "fig6-lr", "--quick",
                 "--out", "sweep.json", "--report", "run.json"),
                ("sweep.json", "run.json")),
    "memsim": (("memsim", "--primitive", "rotate", "--out", "memsim.json"),
               ("memsim.json",)),
    "diff": (("diff", str(BASELINES / "bootstrap__baseline__none__nocache.json"),
              str(BASELINES / "bootstrap__optimal__all__nocache.json"),
              "--json", "cost_diff.json"), ("cost_diff.json",)),
}


def _label(argv):
    return f"repro {' '.join(argv)}"


def _canonical(cmd, names, seed, workdir):
    """Run ``cmd`` under ``PYTHONHASHSEED=seed``; its canonical reports."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, (
        f"{' '.join(cmd)} failed under PYTHONHASHSEED={seed}:\n{proc.stderr}"
    )
    return [
        json.dumps(
            strip_volatile(json.loads((workdir / name).read_text())),
            sort_keys=True,
        )
        for name in names
    ]


def _run_under_seeds(jobs, workdir):
    """Run every ``label → (cmd, report names)`` job under every seed, two
    processes at a time; ``label → {seed: canonical reports}``."""
    runs = [(label, seed) for label in jobs for seed in SEEDS]

    def run(i):
        label, seed = runs[i]
        return _canonical(*jobs[label], seed, workdir / str(i))

    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = list(pool.map(run, range(len(runs))))
    reports = {}
    for (label, seed), output in zip(runs, outputs):
        reports.setdefault(label, {})[seed] = output
    return reports


def _divergence(label, by_seed):
    """None if every seed's reports equal the first seed's, else a message
    naming the producer and the seeds that differ."""
    first = by_seed[SEEDS[0]]
    seeds = [seed for seed in SEEDS[1:] if by_seed[seed] != first]
    if not seeds:
        return None
    return (
        f"{label}: PYTHONHASHSEED {', '.join(map(str, seeds))} "
        f"differ from {SEEDS[0]}"
    )


@pytest.fixture(scope="module")
def producer_reports(tmp_path_factory):
    jobs = {
        _label(argv): ([sys.executable, "-m", "repro", *argv], names)
        for argv, names in PRODUCERS.values()
    }
    return _run_under_seeds(jobs, tmp_path_factory.mktemp("producers"))


@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_reports_are_identical_across_hash_seeds(producer_reports, producer):
    label = _label(PRODUCERS[producer][0])
    message = _divergence(label, producer_reports[label])
    assert message is None, message


# ----------------------------------------------------------------------
# The check itself, on producers with known bugs
# ----------------------------------------------------------------------
FLEETS = ("cpu", "gpu", "asic", "fpga", "bts", "ark", "f1", "craterlake")


def _toy_divergence(body, workdir):
    """Run a toy report producer whose rows pass through
    ``body`` (one line) under every seed; the divergence message or None."""
    code = textwrap.dedent(
        """\
        import json, os, time
        rows = [{{"fleet": f, "p50": i}} for i, f in enumerate({fleets!r})]
        report = {{"schema": "toy", "wall_seconds": time.perf_counter()}}
        {body}
        report["rows"] = rows
        with open("out.json", "w") as out:
            json.dump(report, out)
        """
    ).format(fleets=FLEETS, body=body)
    jobs = {"toy": ([sys.executable, "-c", code], ("out.json",))}
    return _divergence("toy", _run_under_seeds(jobs, workdir)["toy"])


def test_set_order_bug_is_caught(tmp_path):
    body = (
        'order = list({row["fleet"] for row in rows}); '
        'rows = sorted(rows, key=lambda row: order.index(row["fleet"]))'
    )
    message = _toy_divergence(body, tmp_path)
    assert message is not None and message.startswith("toy: PYTHONHASHSEED")


def test_hash_order_bug_is_caught(tmp_path):
    # No static source/sink model sees this one: ``sorted`` looks like a
    # canonicaliser, but its key is the per-process string hash.
    body = 'rows = sorted(rows, key=lambda row: hash(row["fleet"]))'
    assert _toy_divergence(body, tmp_path) is not None


def test_sorted_set_and_dict_key_order_pass(tmp_path):
    # Canonical JSON sorts keys, so dict order built from a set is not
    # observable; a sorted set is canonical.
    body = (
        'order = sorted({row["fleet"] for row in rows}); '
        'rows = sorted(rows, key=lambda row: order.index(row["fleet"])); '
        'report["by_fleet"] = {f: len(f) for f in {r["fleet"] for r in rows}}'
    )
    assert _toy_divergence(body, tmp_path) is None


def test_volatile_fields_do_not_count(tmp_path):
    body = (
        'report.update(provenance={"pid": os.getpid(), "at": time.time()}, '
        'resources={"rss": id(rows)})'
    )
    assert _toy_divergence(body, tmp_path) is None


def test_divergence_names_the_producer_and_the_seeds():
    same = {seed: ["{}"] for seed in SEEDS}
    assert _divergence("repro sweep table5", same) is None
    split = {**same, 2: ['{"a": 1}'], 3: ['{"a": 1}']}
    assert _divergence("repro sweep table5", split) == (
        "repro sweep table5: PYTHONHASHSEED 2, 3 differ from 0"
    )


def test_failed_producer_names_the_command_and_seed(tmp_path):
    cmd = [sys.executable, "-c", "import sys; sys.exit('no report')"]
    with pytest.raises(AssertionError, match="failed under PYTHONHASHSEED=1"):
        _canonical(cmd, ("out.json",), 1, tmp_path / "run")
