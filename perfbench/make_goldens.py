#!/usr/bin/env python3
"""Writes the goldens in `perfbench/golden/` with the program built from the
checkout.

    python3 perfbench/make_goldens.py

Run it from the root of a checkout, and only when a change to the
program's output is intended: every benchmark run is checked against these
files. Each workload's file holds the `cells.csv` of every seed in
`run.GOLDEN_SEEDS`, as one table with the seed as its first column (see
`run.golden`).
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def grid_faulted(vmcw, seed):
    out = os.path.join(run.WORK, "golden-study")
    shutil.rmtree(out, ignore_errors=True)
    r = subprocess.run(run.study_cmd(vmcw, out, seed), stdout=subprocess.DEVNULL)
    text = run.read_text(os.path.join(out, "cells.csv"))
    shutil.rmtree(out, ignore_errors=True)
    if r.returncode != 0 or not run.all_completed(text or ""):
        sys.exit(f"error: grid-faulted seed {seed} did not complete (exit {r.returncode})")
    return text


def serve_jobs(vmcw, seeds):
    server = run.Server(vmcw, os.path.join(run.WORK, "serve-golden"))
    outputs = {}
    try:
        for seed in seeds:
            body = json.dumps({**run.SERVE_JOB, "seed": seed}).encode()
            status, resp = run.http(server.port, "POST", "/v1/plan", body)
            text = server.job_output(resp) if status == 200 else None
            if text is None or not run.all_completed(text):
                sys.exit(f"error: serve job seed {seed} failed (status {status})")
            outputs[seed] = text
    finally:
        code, _ = server.stop()
        shutil.rmtree(server.state_dir, ignore_errors=True)
    if code != 0:
        sys.exit(f"error: vmcw serve exited with {code}")
    return outputs


def write(workload, outputs):
    lines = []
    for seed, text in sorted(outputs.items()):
        header, *rows = text.splitlines()
        if not lines:
            lines.append(f"seed,{header}")
        lines += [f"{seed},{r}" for r in rows]
    path = os.path.join(run.GOLDEN_DIR, f"{workload}.cells.csv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    for seed, text in outputs.items():
        assert run.golden(workload, seed) == text, (workload, seed)
    run.log(f"wrote {path}: seeds {min(outputs)}-{max(outputs)}")


def main():
    seeds = run.GOLDEN_SEEDS
    vmcw, _ = run.build()
    os.makedirs(run.WORK, exist_ok=True)
    write("serve-small-jobs", serve_jobs(vmcw, seeds))
    grid = {}
    for seed in seeds:
        grid[seed] = grid_faulted(vmcw, seed)
        run.log(f"grid-faulted seed {seed} done")
    write("grid-faulted", grid)


if __name__ == "__main__":
    main()
