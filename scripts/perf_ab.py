#!/usr/bin/env python3
"""Same-host perf A/B of the repository benchmark: merge-base vs working tree.

    python3 scripts/perf_ab.py

Checks out `git merge-base HEAD main` into a temporary git worktree (removed
on exit) and runs every BENCHMARK.json workload for PAIRS alternating pairs
at BENCHMARK.json's run_seconds, base against the working tree. Each side
runs through its own perfbench/run.py, which builds that tree's perfbench
into the tree's own .bench_build. For every end-to-end metric it prints both
sides' median and quartiles. It exits 1 when a change median is worse than
the base median by more than the metric's BENCHMARK.json bound, or when the
change fails a larger share of operations than the base; it exits 2 when a
side cannot be set up, built or run to a result line.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def die(msg):
    print("perf-ab: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        die("git %s failed: %s" % (" ".join(args), proc.stderr.strip()))
    return proc.stdout.strip()


def run(tree, workload, seed, seconds):
    """One perfbench run: ({metric: value}, attempted, failed)."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own dir
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        return metrics, result["attempted"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(proc.stderr[-4000:])
        die("%s: %s printed no result (exit %d)"
            % (tree, workload, proc.returncode))


def worse_by(better, base, change):
    """Relative worsening of `change` against `base` (<= 0: not worse)."""
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(base)


def compare(workload, spec, samples, tallies):
    """Prints one workload's table; returns its failure messages."""
    failures = []
    print("perf-ab: %s (%d pairs x %g s)" % (workload, PAIRS,
                                            spec["run_seconds"]))
    print("  %-14s %-36s %-36s %8s %6s" % ("metric", "base median [q1, q3]",
                                          "change median [q1, q3]", "worse",
                                          "bound"))
    for m in spec["end_to_end"]:
        name = m["name"]
        cols = []
        medians = []
        spread = 0.0
        for side in ("base", "change"):
            values = [s[name] for s in samples[side]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            medians.append(statistics.median(values))
            cols.append("%.4g [%.4g, %.4g]" % (medians[-1], q1, q3))
            if medians[-1] != 0:
                spread = max(spread, (q3 - q1) / abs(medians[-1]))
        worse = worse_by(m["better"], *medians)
        bad = worse > m["bound"]
        # A quartile spread wider than the bound cannot resolve a change of
        # that size: the verdict on such a metric is flagged, not trusted.
        print("  %-14s %-36s %-36s %+7.1f%% %5.0f%%%s%s"
              % (name, cols[0], cols[1], 100 * worse, 100 * m["bound"],
                 "  FAIL" if bad else "",
                 "  (spread %.0f%% > bound)" % (100 * spread)
                 if spread > m["bound"] else ""))
        if bad:
            failures.append("%s %s worse by %.1f%% (bound %.0f%%)"
                            % (workload, name, 100 * worse, 100 * m["bound"]))
    base_share, change_share = (failed / attempted
                                for attempted, failed in tallies)
    print("  failed share: base %.4g, change %.4g" % (base_share,
                                                       change_share))
    if change_share > base_share:
        failures.append("%s fails %.4g of operations (base %.4g)"
                        % (workload, change_share, base_share))
    return failures


def main():
    # A terminated run still removes its worktree (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = git("merge-base", "HEAD", "main")
    tmp = tempfile.mkdtemp(prefix="perf-ab-")
    base_tree = os.path.join(tmp, "base")
    try:
        git("worktree", "add", "--detach", "--quiet", base_tree, base)
        sides = {"base": base_tree, "change": ROOT}
        print("perf-ab: base %s (merge-base with main), change = working "
              "tree at %s" % (base[:12], git("rev-parse", "--short=12",
                                             "HEAD")), flush=True)
        for side, tree in sides.items():
            print("perf-ab: building %s" % side, flush=True)
            run(tree, spec["workloads"][0]["name"], 0, 1)
        failures = []
        for w in spec["workloads"]:
            samples = {"base": [], "change": []}
            tallies = {"base": [0, 0], "change": [0, 0]}
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else ("change",
                                                                  "base")
                for side in order:
                    metrics, attempted, failed = run(
                        sides[side], w["name"], pair, spec["run_seconds"])
                    samples[side].append(metrics)
                    tallies[side][0] += attempted
                    tallies[side][1] += failed
                print("perf-ab: %s pair %d/%d done" % (w["name"], pair + 1,
                                                       PAIRS), flush=True)
            failures += compare(w["name"], spec, samples,
                                (tallies["base"], tallies["change"]))
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        base_tree], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
    for msg in failures:
        print("perf-ab: FAIL — " + msg, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
