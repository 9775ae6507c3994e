#!/usr/bin/env python3
"""Run one benchmark workload against gps built from this checkout.

    python3 perfbench/run.py --workload q-hot --seed 1 --seconds 16 --trace 0

Builds `gps` and the bench driver (perfbench/_ocaml) from source in
.bench_build/ at the root of the checkout, then runs the driver. The
last line of stdout is the result object; see perfbench/README.md.

The driver's OCaml sources live in a directory whose name starts with
`_`, which dune skips, so the repository's own `dune build` never sees
them. They are built in a mirror of the program's sources instead:
.bench_build/ws holds copies of dune-project, lib/ and bin/ plus the
driver, and only files whose bytes changed are rewritten, so a warm
rebuild is a no-op.
"""

import argparse
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
PROGRAM = ["dune-project", "lib", "bin"]
WORKLOADS = ["q-hot", "q-cold", "rw-overlay", "session"]
LIMIT_S = 175.0  # a run must end within 180 s, builds aside


def files_under(top):
    if os.path.isfile(top):
        return [top]
    out = []
    for d, _, fs in os.walk(top):
        out.extend(os.path.join(d, f) for f in fs)
    return sorted(out)


def mirror(src, dst):
    """Copy src (file or tree) to dst, rewriting only changed files and
    removing files that are gone from src."""
    wanted = set()
    for f in files_under(src):
        rel = os.path.relpath(f, src) if os.path.isdir(src) else ""
        target = os.path.join(dst, rel) if rel else dst
        wanted.add(os.path.normpath(target))
        with open(f, "rb") as fh:
            data = fh.read()
        try:
            with open(target, "rb") as fh:
                if fh.read() == data:
                    continue
        except OSError:
            pass
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as fh:
            fh.write(data)
    if os.path.isdir(dst):
        for f in files_under(dst):
            if os.path.normpath(f) not in wanted:
                os.remove(f)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        return cand
    return None


def source_id():
    """The commit when the checkout is a git clone, else a digest of the
    program's sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in PROGRAM:
        for f in files_under(os.path.join(ROOT, top)):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def cpu_split():
    """(driver cores, server cores) for an end-to-end run: the load
    generator gets one core to itself and the server the rest, so where
    the scheduler happens to put the two cannot change the figures (on a
    2-vCPU VM, light requests read 0.18 ms in runs where the two shared
    a vCPU and 0.27 ms in runs where they did not). None on a one-core
    host or without `taskset`."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2 or shutil.which("taskset") is None:
        return None
    return cpus[:1], cpus[1:]


def build(dune):
    for top in PROGRAM:
        src = os.path.join(ROOT, top)
        if not os.path.exists(src):
            sys.exit(f"perfbench: {top} not found; run from a full checkout")
        mirror(src, os.path.join(WS, top))
    mirror(os.path.join(HERE, "_ocaml"), os.path.join(WS, "perfbench"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", WS, "--profile", "release",
         "bin/gps_cli.exe", "perfbench/perfbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit("perfbench: build failed")
    out = os.path.join(WS, "_build", "default")
    return os.path.join(out, "bin", "gps_cli.exe"), os.path.join(out, "perfbench", "perfbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    started = time.monotonic()

    dune = find_dune()
    if dune is None:
        sys.exit("perfbench: dune not found")
    gps, driver = build(dune)
    work = os.path.join(BUILD, "work-" + args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--gps", gps, "--work", work, "--commit", source_id(),
           "--cores", str(len(os.sched_getaffinity(0)))]
    pin = None
    split = cpu_split() if args.trace == 0 else None
    if split:
        driver_cpus, server_cpus = split
        cmd += ["--server-cpus", ",".join(map(str, server_cpus)),
                "--all-cpus", ",".join(map(str, driver_cpus + server_cpus))]
        pin = lambda: os.sched_setaffinity(0, driver_cpus)
    # its own process group: on a timeout the driver and every server it
    # started go down together
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=pin)
    try:
        code = proc.wait(timeout=max(60.0, LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded its time limit\n")
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the driver left behind
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
