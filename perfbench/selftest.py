#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks that:
  * every workload prints every end-to-end metric (and, traced, every
    per-layer metric) by name with the unit BENCHMARK.json gives it, passes
    its output checks and ends with a well-formed JSON result;
  * dropping one fact before the digest makes error_rate > 0;
  * the same seed generates byte-identical inputs and another seed
    generates different ones;
  * a bad flag or workload fails without printing a result.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=170)


def tiny(workload, *extra, trace="0", seed="7"):
    return bench("--workload", workload, "--seed", seed, "--seconds", "0.3",
                 "--trace", trace, "--scale", "tiny", *extra)


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def parse(proc, what):
    out = proc.stdout.decode()
    if proc.returncode != 0:
        fail("%s exited %d:\n%s%s" % (what, proc.returncode, out,
                                      proc.stderr.decode()))
    lines = out.rstrip("\n").split("\n")
    if not run.well_formed(lines[-1]):
        fail("%s: last line is not a result: %s" % (what, lines[-1]))
    return json.loads(lines[-1]), lines[:-1]


def error_rate(lines):
    for line in lines:
        if line.split()[:1] == ["error_rate"]:
            return float(line.split()[1])
    fail("no error_rate line")


def check_metrics(workload):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        what = "%s --trace %s" % (workload, trace)
        result, lines = parse(tiny(workload, trace=trace), what)
        if not result["correct"] or result["failed"] != 0:
            fail("%s failed its output checks:\n%s" % (what, "\n".join(lines)))
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("%s metrics differ from BENCHMARK.json: %s vs %s"
                 % (what, sorted(got.items()), sorted(want.items())))
        printed = {line.split()[0]: line.split()[2] for line in lines
                   if len(line.split()) >= 3 and not line.startswith("#")}
        for name, unit in want.items():
            if printed.get(name) != unit:
                fail("%s did not print '%s ... %s'" % (what, name, unit))
            if key == "end_to_end" and result["metrics"][name]["value"] <= 0:
                fail("%s: %s is not positive" % (what, name))
        if error_rate(lines) != 0:
            fail("%s: error_rate is not 0" % what)
    print("ok: %s prints every metric with its unit and passes its checks"
          % workload)


def check_inputs(workload):
    def dump(seed):
        proc = tiny(workload, "--dump-inputs", seed=seed)
        if proc.returncode != 0 or not proc.stdout:
            fail("%s --dump-inputs failed" % workload)
        return proc.stdout

    if dump("7") != dump("7"):
        fail("%s: one seed gave different inputs" % workload)
    if dump("7") == dump("8"):
        fail("%s: two seeds gave the same inputs" % workload)
    print("ok: %s inputs are a function of the seed" % workload)


def check_drop_fact(workload):
    result, lines = parse(tiny(workload, "--drop-fact"), workload + " --drop-fact")
    if result["correct"] or result["failed"] == 0 or error_rate(lines) <= 0:
        fail("%s: dropping a fact went unnoticed" % workload)
    print("ok: %s notices a dropped fact (error_rate %g)"
          % (workload, error_rate(lines)))


def check_bad_usage():
    for args in (["--workload", "no-such"], ["--workload", "tc-path", "--trace", "2"],
                 ["--workload", "tc-path", "--bogus", "1"]):
        proc = bench(*args)
        if proc.returncode == 0 or b'"correct"' in proc.stdout:
            fail("accepted bad usage: %s" % " ".join(args))
    print("ok: bad usage fails without a result")


def main():
    if not run.build():
        fail("build")
    for workload in WORKLOADS:
        check_metrics(workload)
        check_inputs(workload)
    for workload in ("tc-path", "graph-mixed"):
        check_drop_fact(workload)
    check_bad_usage()
    print("selftest passed")


if __name__ == "__main__":
    main()
