"""fbqrc benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload stm_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. `--trace 0` measures the end-to-end metrics with tracing off,
with every duration corrected for the host's current speed (see
REFERENCE_S);
`--trace 1` runs untraced and traced rounds in pairs and reports per-layer
metrics. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
when every correctness gate passed, 1 when one failed and 2 when the
checkout has no package to run.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy loads (nothing above imports it): with the default,
# each of the two pool workers of `ising_noise_sweep` starts one OpenBLAS
# thread per core and the sweep oversubscribes the machine (see NOTES.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"

MIN_ROUNDS = 4  # rounds per untraced run, however short --seconds is (>= 2 for the rerun gate)
# Fresh interpreters timed for setup_s, one after each of the first rounds
# so that they sample the same machine conditions as the rounds do.
SETUP_PROBES = 7

# Every duration behind an end-to-end metric is corrected for the host's
# current speed: multiplied by REFERENCE_S / t, where t is the time of a
# fixed numpy kernel (see host_speed; it calls nothing in fbqrc) measured
# next to it, and REFERENCE_S is about that kernel's time on the quiet
# 2-vCPU host of the baseline in NOTES.md. On a shared host the kernel's
# time drifts by +-25 % over tens of seconds and the workloads drift with
# it; the raw values are printed alongside the corrected ones.
REFERENCE_S = 0.10

END_TO_END_UNITS = {
    "members_per_s": "1/s",
    "cpu_s_per_member": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def host_speed() -> float:
    """REFERENCE_S over the median of three timings of the reference kernel.

    The kernel is 200 passes of the shot sampler's cumsum / compare / gather
    on a 5000 x 4 array: it slows with the host as the workloads do, and
    its arrays are too small to raise the peak RSS of the run.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    probs, u = rng.random((5000, 4)), rng.random(5000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(200):
            cum = np.cumsum(probs, axis=1)
            probs[(cum < u[:, None]).sum(axis=1)].mean(axis=0)
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_sha() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed: int, outputs_sha256: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "workers": workload.workers,
        "members_per_round": workload.members,
        "sizes": workload.sizes,
        "outputs_sha256": outputs_sha256,
    }


def setup_probe(args) -> float:
    """Time from starting a fresh interpreter to its first timed call.

    The probe imports the package and builds the workload's configs, then
    prints the system-wide monotonic clock, which the parent compares with
    the clock it read just before starting the probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


class Gates:
    """Correctness gates and members, counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def members(self, n: int, ok: bool = True) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.failures["member_error"] = self.failures.get("member_error", 0) + n

    def add(self, gates) -> None:
        for name, ok in gates:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[name] = self.failures.get(name, 0) + 1

    def guarded(self, name, fn, *args):
        """Run a gate function; an exception counts as one failed gate."""
        try:
            self.add(fn(*args))
        except Exception:
            traceback.print_exc()
            self.add([(name, False)])


def timed_round(workload, seed, outdir, workers):
    cfgs = workload.configs(seed)
    c0, t0 = cpu_seconds(), time.perf_counter()
    out = workload.run(cfgs, outdir, workers)
    return out, time.perf_counter() - t0, cpu_seconds() - c0


def measure(workload, args, outdir, gates: Gates):
    """End-to-end metrics: medians over rounds run until --seconds have passed."""
    from workloads import digest, round_seed

    walls, cpus, setups = [], [], []  # raw measurements
    round_speeds, setup_speeds = [], []  # host speed next to each of them
    digests = []
    speed_before = host_speed()
    r = 0
    while r < MIN_ROUNDS or sum(walls) < args.seconds:
        # round 1 reruns round 0's seed for the determinism gate; every
        # later round gets inputs of its own
        seed = round_seed(args.seed, max(r - 1, 0))
        try:
            out, wall, cpu = timed_round(workload, seed, outdir, workload.workers)
        except Exception:
            traceback.print_exc()
            gates.members(workload.members, ok=False)
            break
        speed_after = host_speed()
        round_speeds.append((speed_before + speed_after) / 2)
        speed_before = speed_after
        gates.members(workload.members)
        walls.append(wall)
        cpus.append(cpu)
        gates.guarded("outputs", workload.check, out)
        digests.append(digest(out.files))
        if r == 1:
            gates.add([("rerun_same_sha256", digests[1] == digests[0])])
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args))
            setup_speeds.append(speed_after)
        r += 1
    rss = peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setup_speeds.append(host_speed())
        setups.append(setup_probe(args))
    if workload.sample_check is not None:
        gates.guarded("sampled_members", workload.sample_check, args.seed)

    n = workload.members
    rates = [n / w for w in walls]
    per_member = [c / n for c in cpus]
    metrics = {
        "members_per_s": statistics.median(x / k for x, k in zip(rates, round_speeds)),
        "cpu_s_per_member": statistics.median(x * k for x, k in zip(per_member, round_speeds)),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(x * k for x, k in zip(setups, setup_speeds)),
    }
    print(f"rounds {len(walls)}: wall_s {[round(w, 4) for w in walls]}, "
          f"host_speed {[round(k, 4) for k in round_speeds]}")
    print(f"raw (uncorrected): members_per_s {statistics.median(rates):.6g} 1/s, "
          f"cpu_s_per_member {statistics.median(per_member):.6g} s, "
          f"setup_s {statistics.median(setups):.6g} s")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, digests[0]


def trace(workload, args, outdir, gates: Gates):
    """Per-layer metrics: medians over (untraced, traced) round pairs."""
    import fbqrc
    from tracing import Tracer, layer_metrics, layer_self_times, layer_wrappers, patched, recording_pool
    from workloads import digest, round_seed

    rounds = []
    first_digest = None
    busy = 0.0  # wall time of all timed rounds so far
    i = 0
    while i < 1 or busy < args.seconds:
        seed = round_seed(args.seed, i)
        speed_before = host_speed()
        plain, wall_plain, _ = timed_round(workload, seed, outdir, 1)
        speed_between = host_speed()
        plain_digest = digest(plain.files)
        first_digest = first_digest or plain_digest
        gates.members(workload.members)
        gates.guarded("outputs", workload.check, plain)

        tracer = Tracer()
        with patched(layer_wrappers(tracer, fbqrc)):
            traced, wall_traced, _ = timed_round(workload, seed, outdir, 1)
        gates.members(workload.members)
        gates.guarded("outputs", workload.check, traced)
        speed_after = host_speed()
        gates.add([("traced_same_sha256", digest(traced.files) == plain_digest)])

        m = layer_metrics(tracer.spans)
        layers, rest = layer_self_times(tracer.spans, wall_traced)
        print(f"traced round {i}: wall_s {wall_traced:.4f}, self_s by layer "
              + json.dumps({k: round(v, 4) for k, v in sorted(layers.items())})
              + f", unattributed_s {rest:.4f}")
        m["harness.csv_bytes"] = sum(os.path.getsize(f) for f in traced.files if f.endswith(".csv"))
        m["trace.overhead_frac"] = (wall_traced * (speed_between + speed_after)) / (
            wall_plain * (speed_before + speed_between)) - 1.0
        busy += wall_plain + wall_traced
        m["harness.ipc_bytes_per_job"] = 0.0
        m["harness.pool_overhead_frac"] = 0.0
        if workload.workers > 1:
            job_bytes: list = []
            pool = recording_pool(job_bytes)
            with patched([(fbqrc.harness, "ProcessPoolExecutor", pool)]):
                parallel, wall_parallel, _ = timed_round(workload, seed, outdir, workload.workers)
            gates.members(workload.members)
            gates.add([("workers_same_sha256", digest(parallel.files) == plain_digest)])
            serial = sum(s.duration for s in tracer.spans if s.name == "harness.run_pipeline")
            m["harness.ipc_bytes_per_job"] = statistics.mean(job_bytes)
            m["harness.pool_overhead_frac"] = 1.0 - serial / (workload.workers * wall_parallel)
            busy += wall_parallel
        rounds.append(m)
        i += 1

    if workload.sample_check is not None:
        gates.guarded("sampled_members", workload.sample_check, args.seed)
    print(f"traced rounds {len(rounds)}")
    metrics = {k: statistics.median(m[k] for m in rounds) for k in rounds[0]}
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, first_digest


def layer_unit(name: str) -> str:
    if "bytes" in name:
        return "B"
    if name.endswith("ns_per_shot_step"):
        return "ns"
    for suffix in ("_ms", "_s", "_frac"):
        if name.endswith(suffix):
            return suffix[1:]
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbqrc" / "__init__.py").is_file():
        print(f"no fbqrc package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.configs(args.seed)
        print(time.monotonic())
        return 0

    outdir = OUT_BASE / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    gates = Gates()
    try:
        run = trace if args.trace else measure
        metrics, outputs_sha256 = run(workload, args, str(outdir), gates)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT_BASE.rmdir()
        except OSError:
            pass  # another run still uses it

    print("provenance " + json.dumps(provenance(workload, args.seed, outputs_sha256), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {gates.failed / gates.attempted:.6g} frac")
    for name, n in sorted(gates.failures.items()):
        print(f"FAILED gate {name}: {n}", file=sys.stderr)
    correct = gates.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
