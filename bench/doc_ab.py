#!/usr/bin/env python3
"""Same-results check: this checkout's CLI documents against BASE_REV's.

Usage, from anywhere inside a checkout:

    python3 bench/doc_ab.py BASE_REV

Extracts BASE_REV with `git archive` into a temporary directory (as
bench/perf_ab.py does), builds both trees' CLIs (g10sim, g10multi,
g10serve, g10fleet, g10trace) in Release, and runs one fixed document
set with each:

  - g10sim --format json on 5 models x 7 designs at scales 1 and 16;
  - g10sim --format json, design g10gds, iterations 24 at scale 8
    (ResNet152 and SENet154: the flash log fills and GC runs);
  - g10sim's `listing = 400` output for g10gds, g10host and g10 (BERT
    at scale 16: the instrumented plan, then the run);
  - g10sim --mix examples/demo.mix and g10multi --demo 64;
  - g10serve examples/elastic.serve and g10fleet examples/fleet.serve
    at --workers 1 and 4, and both tools' --demo 64;
  - each tool's --trace file (with the run's own output);
  - g10sim --attribution on the traced g10 config, and its
    --attribution-diff baseuvm in table and json form;
  - g10trace critical|flame on the g10sim trace, forensics on the
    g10fleet trace and diff of a baseuvm against a g10 trace, each in
    table and json form.

Every document is run in a per-side working directory under the same
relative paths, each side with its own tree's examples/, so paths
echoed into documents agree. Prints each differing document with its
first differing line.

Documents a change alters on purpose are named in
bench/doc_ab_expect.txt, one `<document>: <why>` line each. The
expected set is the lines this checkout's file has and BASE_REV's
lacks, so only the change's own diff can add to it. Exits 1 if any
run fails, if a document outside the expected set differs, or if a
document in it does not; 0 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECT = "bench/doc_ab_expect.txt"
TOOLS = ("g10sim", "g10multi", "g10serve", "g10fleet", "g10trace")
MODELS = ("BERT", "ViT", "Inceptionv3", "ResNet152", "SENet154")
DESIGNS = ("ideal", "baseuvm", "deepum", "flashneuron", "g10gds",
           "g10host", "g10")
JOBS = 4


def fail(msg):
    print(f"doc_ab: {msg}", file=sys.stderr)
    sys.exit(1)


def extract(rev, dest):
    """Write the tree of @p rev into @p dest; no worktree state is kept."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        fail(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def build(side, tree, out):
    """Configure and build @p tree's CLIs into @p out."""
    configure = ["cmake", "-S", str(tree), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release", "-DG10_BUILD_TESTS=OFF",
                 "-DG10_BUILD_BENCH=OFF", "-DG10_BUILD_EXAMPLES=OFF"]
    make = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
            "--target", *TOOLS]
    for cmd in (configure, make):
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode:
            print(p.stdout[-4000:], file=sys.stderr)
            fail(f"{side}: {' '.join(cmd[:2])} failed")


def config(model, design, scale, iterations=None, listing=None):
    text = f"model = {model}\nscale = {scale}\ndesign = {design}\n"
    if iterations:
        text += f"iterations = {iterations}\n"
    if listing:
        text += f"listing = {listing}\n"
    return text


def documents():
    """The fixed set, in two stages (the second reads the first's
    traces). Each document is (name, tool, args, file): its text is
    the tool's stdout, or @p file when the run writes one."""
    configs = {}
    first = []
    for model in MODELS:
        for design in DESIGNS:
            for scale in (1, 16):
                cfg = f"cfg/{model}.{design}.s{scale}.cfg"
                configs[cfg] = config(model, design, scale)
                first.append((f"g10sim/{model}.{design}.s{scale}.json",
                              "g10sim", ["--format", "json", cfg], None))
    for model in ("ResNet152", "SENet154"):
        cfg = f"cfg/{model}.g10gds.iter24.cfg"
        configs[cfg] = config(model, "g10gds", 8, iterations=24)
        first.append((f"g10sim/{model}.g10gds.iter24.json", "g10sim",
                      ["--format", "json", cfg], None))
    for design in ("g10gds", "g10host", "g10"):
        cfg = f"cfg/BERT.{design}.listing400.cfg"
        configs[cfg] = config("BERT", design, 16, listing=400)
        first.append((f"g10sim/BERT.{design}.listing400.out", "g10sim",
                      [cfg], None))
    first += [
        ("g10sim/demo.mix.json", "g10sim",
         ["--mix", "examples/demo.mix", "--format", "json"], None),
        ("g10multi/demo64.json", "g10multi",
         ["--demo", "64", "--format", "json"], None),
        ("g10serve/demo64.json", "g10serve",
         ["--demo", "64", "--format", "json"], None),
        ("g10fleet/demo64.json", "g10fleet",
         ["--demo", "64", "--format", "json"], None),
    ]
    for workers in ("1", "4"):
        first += [
            (f"g10serve/elastic.w{workers}.json", "g10serve",
             ["examples/elastic.serve", "--format", "json", "--workers",
              workers], None),
            (f"g10fleet/fleet.w{workers}.json", "g10fleet",
             ["examples/fleet.serve", "--format", "json", "--workers",
              workers], None),
        ]

    # Traced runs: the run's output and its trace are two documents.
    configs["cfg/trace.g10.cfg"] = config("ResNet152", "g10", 64)
    configs["cfg/trace.baseuvm.cfg"] = config("ResNet152", "baseuvm", 64)
    traced = {
        "g10sim": ["cfg/trace.g10.cfg"],
        "g10sim.baseuvm": ["cfg/trace.baseuvm.cfg"],
        "g10multi": ["--demo", "64"],
        "g10serve": ["--demo", "64"],
        "g10fleet": ["--demo", "64"],
    }
    for name, args in traced.items():
        tool = name.split(".")[0]
        trace = f"traces/{name}.json"
        first += [(f"{tool}/{name}.traced.out", tool,
                   args + ["--trace", trace], None),
                  (trace, tool, args + ["--trace", trace], trace)]

    first.append(("g10sim/trace.g10.attribution.table", "g10sim",
                  ["cfg/trace.g10.cfg", "--attribution"], None))
    for fmt in ("table", "json"):
        first.append((f"g10sim/trace.g10.attribution-diff.{fmt}",
                      "g10sim", ["cfg/trace.g10.cfg", "--format", fmt,
                                 "--attribution-diff", "baseuvm"], None))

    second = []
    for fmt in ("table", "json"):
        for cmd, traces in (("critical", ["traces/g10sim.json"]),
                            ("flame", ["traces/g10sim.json"]),
                            ("forensics", ["traces/g10fleet.json"]),
                            ("diff", ["traces/g10sim.baseuvm.json",
                                      "traces/g10sim.json"])):
            second.append((f"g10trace/{cmd}.{fmt}", "g10trace",
                           [cmd, *traces, "--format", fmt], None))
    return configs, [first, second]


def run_stage(stage, sides):
    """Run every run of @p stage on both sides (documents with the same
    tool and args come from one run); returns {name: {side: text}} and
    a list of failure messages."""
    runs = {}
    for name, tool, args, path in stage:
        runs.setdefault((tool, tuple(args)), []).append((name, path))
    jobs = [(side, tool, args, outs) for (tool, args), outs in
            runs.items() for side in sides]

    def one(job):
        side, tool, args, outs = job
        work, bin_dir = sides[side]
        p = subprocess.run([str(bin_dir / tool), *args], cwd=work,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if p.returncode:
            return side, None, (
                f"{side}: {tool} {' '.join(args)} exited with "
                f"{p.returncode}: "
                f"{p.stderr.decode(errors='replace').strip()[-500:]}")
        texts = {name: (work / path).read_bytes() if path else p.stdout
                 for name, path in outs}
        return side, texts, None

    docs, failures = {}, []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for side, texts, err in pool.map(one, jobs):
            if err:
                failures.append(err)
                continue
            for name, text in texts.items():
                docs.setdefault(name, {})[side] = text
    return docs, failures


def first_difference(a, b):
    """1-based line number and the two lines where @p a and @p b first
    differ (a missing line reads as <end of document>)."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i].decode(errors="replace") if i < len(la) else None
        y = lb[i].decode(errors="replace") if i < len(lb) else None
        if x != y:
            return i + 1, x, y
    return 0, None, None  # differ only in a trailing newline


def expected(base):
    """Document names on the lines of EXPECT this checkout adds."""
    def lines(tree):
        path = tree / EXPECT
        if not path.is_file():
            return set()
        return {line.strip() for line in path.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")}
    return {line.split(":", 1)[0].strip()
            for line in lines(ROOT) - lines(base)}


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base_rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="g10_doc_ab_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base-src"
        base.mkdir()
        extract(base_rev, base)
        trees = {"base": base, "change": ROOT}
        configs, stages = documents()
        sides = {}
        for side, tree in trees.items():
            print(f"doc_ab: building {side} ({tree})", flush=True)
            build(side, tree, tmp / f"{side}-build")
            work = tmp / f"{side}-work"
            shutil.copytree(tree / "examples", work / "examples")
            for sub in ("cfg", "traces"):
                (work / sub).mkdir()
            for path, text in configs.items():
                (work / path).write_text(text)
            sides[side] = (work, tmp / f"{side}-build")

        docs, failures = {}, []
        for stage in stages:
            got, failed = run_stage(stage, sides)
            docs.update(got)
            failures += failed
        if failures:
            fail("runs failed:\n  " + "\n  ".join(failures))

        want = expected(base)
        differ = []
        for name in sorted(docs):
            b, c = docs[name]["base"], docs[name]["change"]
            if b == c:
                continue
            differ.append(name)
            line, x, y = first_difference(b, c)
            print(f"DIFFERS {name}{'' if name in want else ' (unexpected)'}"
                  f": first at line {line}\n  base:   {x}\n  change: {y}")
        unknown = sorted(want - set(docs))
        same = sorted(want & set(docs) - set(differ))
        for name in unknown:
            print(f"EXPECTED {name}: no such document in the set")
        for name in same:
            print(f"EXPECTED {name}: listed in {EXPECT} but identical")
        print(f"doc_ab: {len(docs)} documents, {len(differ)} differ "
              f"({len(want)} expected to)")
        if set(differ) != want:
            fail(f"differing documents do not match {EXPECT}")
        print("doc_ab: same results")


if __name__ == "__main__":
    main()
