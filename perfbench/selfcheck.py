"""Self-check of the benchmark: its output format and its answer checks.

    python3 perfbench/selfcheck.py

1. Runs every workload of ``BENCHMARK.json`` briefly, untraced and traced,
   and requires the last line of output to carry ``correct``, ``attempted``
   and ``failed`` and every declared metric under its exact name and unit,
   each end-to-end value a number above 0.
2. Runs one round of every workload in this process and requires unique
   job labels (answers are looked up by label), every check to accept the
   real answer and to reject each deliberately wrong one, with at least one
   wrong answer tried per kind of check.
3. Copies only ``BENCHMARK.json`` and the benchmark's directories into a
   scratch directory and requires the command to fail there without
   printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _run(spec: dict, cwd: Path, workload: str, trace: int):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(spec: dict) -> list[str]:
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{w['name']} --trace {trace}"
            proc = _run(spec, ROOT, w["name"], trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(res)}")
                continue
            if res["correct"] is not True or res["failed"] != 0:
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']}")
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
                problems.append(f"{where}: attempted={res['attempted']!r}")
            want = {m["name"]: m["unit"] for m in declared}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {name} = {m}")
                elif trace == 0 and not m["value"] > 0:
                    problems.append(f"{where}: {name} = {m['value']} is not above 0")
            print(f"output {where}: {len(got)} metrics", flush=True)
    return problems


def check_checkers(spec: dict) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    problems = []
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "selfcheck-work"
    workdir.mkdir(exist_ok=True)
    try:
        for w in spec["workloads"]:
            jobs = WORKLOADS[w["name"]](1, workdir)
            if len({job.label for job in jobs}) != len(jobs):
                problems.append(f"{w['name']}: job labels are not unique")
            answers = {job.label: job.run() for job in jobs}
            tried: dict[str, int] = {}
            for job in jobs:
                ans = answers[job.label]
                msg = job.check(ans, answers)
                if msg:
                    problems.append(f"{job.label}: real answer rejected: {msg}")
                for wrong in job.wrongs:
                    bad = wrong(ans)
                    tried[job.kind] = tried.get(job.kind, 0) + 1
                    if not job.check(bad, {**answers, job.label: bad}):
                        problems.append(f"{job.label}: wrong answer {bad!r} accepted")
            for kind in sorted({job.kind for job in jobs}):
                if not tried.get(kind):
                    problems.append(f"{w['name']}: no wrong answer tried for {kind} checks")
            print(f"checkers {w['name']}: {sum(tried.values())} wrong answers, kinds {tried}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_bare(spec: dict) -> list[str]:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
        print(f"bare directory: exit {proc.returncode}: {proc.stderr.strip()}", flush=True)
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec) + check_checkers(spec) + check_output(spec)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
