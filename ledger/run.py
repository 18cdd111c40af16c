#!/usr/bin/env python3
"""Performance ledger: build ledger_bench from this checkout and run one workload.

    python3 ledger/run.py --workload bt_cohort --seed 1 --trace 0

Builds ledger/ (CMake, Release) into $CARGO_TARGET_DIR/ledger, default
.bench_build/ledger, runs ledger_bench for BENCHMARK.json's run_seconds
(--seconds is accepted only with that value), adds the environment fingerprint,
compares the output rows with ledger/reference/ on the default seed, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and prints the per-layer tables). Everything a run writes
(result.json, the generated specs, output rows) lands in its --out
directory, default <build>/runs/<workload>-s<seed>-t<trace>.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
REL_TOL = 1e-9
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "ledger"


def configured_source(bdir):
    """The source directory a build directory was configured from, or None."""
    cache = bdir / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build(bdir):
    """Configure once, then build incrementally. Returns the ledger_bench path.

    A build directory configured from another checkout's ledger/ is wiped
    first, so that the binary is always built from this checkout's sources.
    """
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library tree at {ROOT / 'src'}; run from a full checkout", 2)
    source = configured_source(bdir)
    if source is not None and source != HERE:
        for p in bdir.iterdir():
            if p.name == "runs":
                continue
            if p.is_dir() and not p.is_symlink():
                shutil.rmtree(p)
            else:
                p.unlink()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if configured_source(bdir) is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail), 3)
    return bdir / "ledger_bench"


def git_describe():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: name the sources by content instead.
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "no-git src-sha256:" + h.hexdigest()[:16]


def split_csv(text):
    return [line.split(",") for line in text.splitlines()]


def compare_rows(got, want):
    """'identical', 'within 1e-9' or a mismatch description."""
    if got == want:
        return True, "identical"
    g, w = split_csv(got), split_csv(want)
    if len(g) != len(w):
        return False, f"{len(g)} lines vs {len(w)} in the reference"
    for i, (gr, wr) in enumerate(zip(g, w)):
        if len(gr) != len(wr):
            return False, f"line {i + 1}: {len(gr)} fields vs {len(wr)}"
        for a, b in zip(gr, wr):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return False, f"line {i + 1}: {a!r} vs {b!r}"
            if abs(x - y) > REL_TOL * max(abs(x), abs(y)):
                return False, f"line {i + 1}: {a} vs {b} beyond {REL_TOL} relative"
    return True, f"within {REL_TOL} relative (bytes differ)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="must equal BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result directory (default under the build dir)")
    args = ap.parse_args()
    start = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        fail(f"--seconds {args.seconds:g}: runs are measured at run_seconds = "
             f"{spec['run_seconds']} only, the length their spread was measured at", 2)
    args.seconds = spec["run_seconds"]

    bdir = build_root()
    bench = build(bdir)
    out = Path(args.out) if args.out else bdir / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    # DS_THERMAL_KERNEL pins the stepping path (no cohorts under lu or
    # propagator); the ledger always measures the default path.
    kernel_env = os.environ.get("DS_THERMAL_KERNEL")
    env = {k: v for k, v in os.environ.items() if k != "DS_THERMAL_KERNEL"}
    try:
        r = subprocess.run(cmd, env=env,
                           timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("ledger_bench timed out", 4)
    if r.returncode != 0:
        fail(f"ledger_bench exited with {r.returncode}", 4)
    result = json.loads((out / "result.json").read_text())

    calib = json.loads(subprocess.run([str(bench), "--calibrate"], capture_output=True,
                                      text=True, timeout=30, check=True).stdout)
    result["env"] = dict(calib, git=git_describe(), telemetry=result.pop("telemetry_on"),
                         ds_thermal_kernel=("unset" if kernel_env is None
                                            else f"unset (caller had {kernel_env!r})"),
                         **result.pop("build"))

    checks = result["checks"]
    if args.seed == DEFAULT_SEED:
        ref = HERE / "reference" / f"{args.workload}.csv"
        if ref.is_file():
            ok, detail = compare_rows((out / "rows.csv").read_text(), ref.read_text())
        else:
            ok, detail = False, f"missing {ref.relative_to(ROOT)}"
        checks.append({"name": "rows_match_reference", "ok": ok, "detail": detail})
        result["attempted"] += 1
        result["failed"] += 0 if ok else 1

    values = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if values.get(m["name"]) is None:
            fail(f"ledger_bench did not report {m['name']}", 5)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result["metrics"] = metrics
    correct = all(c["ok"] for c in checks) and result["failed"] == 0
    result["correct"] = correct
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    width = max(len(k) for k in result["end_to_end"])
    print(f"[{args.workload}] seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"{result['env']['effective_cpus']:.2f} effective of {result['env']['nproc']} CPUs; "
          f"{result['env']['git']}")
    for k, v in sorted(result["end_to_end"].items()):
        print(f"  {k:<{width}} {v:.6g}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(f"  results in {out}")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
