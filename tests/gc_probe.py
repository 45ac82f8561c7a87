"""Where the benchmark's garbage collections fall: a report, not a test.

    python tests/gc_probe.py [--seed N] [--all] [--no-scan]

The witness workload times one `cli.main` of about 0.3 ms per process,
and the scan workload 112 ops of a few tens of microseconds each.  A
generation-0 collection costs about as much as a witness op, so whether
one falls inside an op hangs on how many objects the process made before
it, and a change to any module the process loads can move it.  This
probe shows where it falls.

It copies `perfbench/` into a temporary directory beside a `src` symlink
to this tree's `src`, and patches only that copy of `child.py`:

- just before the timed `cli.main` of `run_witness`, and at the start
  of each op of `run_scan` (where `stamped` and the scan set the op's
  start time), it reads the generation-0 count `gc.get_count()[0]`;
- from then until the op ends, a `gc.callbacks` entry records each
  collection that starts, with its generation.

Then it runs the copy's own jobs, as `run.py` does: the `gen` job of the
seed, one witness process per input and one scan process.  For witness
it prints, per input, the count at the op's start and any collection
inside the op; it covers the seed's 16 inputs, or with `--all` every
candidate j of the 16 strata (each stratum's essential j within 2 of its
centre).  For scan it prints each op that holds a collection.

The patch is the same for every tree, so two trees compare under it; it
adds a few objects of its own before the op, so its counts may differ
from an unpatched child's by a fixed offset.  The count is read before
the probe records it or registers its callback.  Standard library only;
pytest does not collect it.  Exits 1 when a patch anchor is missing from
`child.py` or a child process fails, and 0 otherwise, whatever it reads.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each patch: (anchor, replacement, count).  The anchor must occur in
# child.py exactly `count` times; each occurrence is replaced.
_HOOKS = '''

_PROBE = {"starts": [], "collections": []}


def _probe_cb(phase, info):
    if phase == "start":
        _PROBE["collections"].append([_PROBE["starts"][-1][0], info["generation"]])


def _probe_start(k):
    n = gc.get_count()[0]
    _PROBE["starts"].append([k, n])
    gc.callbacks.append(_probe_cb)


def _probe_end():
    gc.callbacks.remove(_probe_cb)
'''

PATCHES = [
    # the probe's hooks, after the child's own imports
    ("from tracer import Tracer  # noqa: E402\n",
     "from tracer import Tracer  # noqa: E402\n" + _HOOKS, 1),
    # witness: the timed cli.main
    ("            t0 = time.perf_counter()\n            if tracer is not None:\n",
     "            _probe_start(0)\n"
     "            t0 = time.perf_counter()\n            if tracer is not None:\n", 1),
    ("            t1 = time.perf_counter()\n    except (MemoryError, Timeout) as exc:\n",
     "            t1 = time.perf_counter()\n            _probe_end()\n"
     "    except (MemoryError, Timeout) as exc:\n", 1),
    # scan: an op runs from the start time set in `stamped`, or before the
    # scan, to the end time that `stamped` appends
    ("        lat.append(time.perf_counter() - since[0])\n",
     "        lat.append(time.perf_counter() - since[0])\n        _probe_end()\n", 1),
    ("        since[0] = time.perf_counter()\n",
     "        _probe_start(len(lat))\n        since[0] = time.perf_counter()\n", 1),
    ("    since[0] = time.perf_counter()\n    try:\n",
     "    _probe_start(0)\n    since[0] = time.perf_counter()\n    try:\n", 1),
    # after the last op, `stamped` starts one more that never ends
    ('        report = corefree.core_free_scan(job["max_weight"])\n',
     '        report = corefree.core_free_scan(job["max_weight"])\n        _probe_end()\n', 1),
    # the probe's record goes out with the child's result
    ('    sys.stdout.write(json.dumps(result) + "\\n")\n',
     '    result["gc_probe"] = _PROBE\n    sys.stdout.write(json.dumps(result) + "\\n")\n', 1),
]


class ProbeError(Exception):
    pass


def patch_child(source: str) -> str:
    for anchor, replacement, count in PATCHES:
        found = source.count(anchor)
        if found != count:
            raise ProbeError(f"patch anchor found {found} times in child.py, "
                             f"expected {count}: {anchor.strip()!r}")
        source = source.replace(anchor, replacement)
    return source


def make_copy(tmp: Path) -> Path:
    """perfbench/ copied under tmp, with the patched child.py, and tmp/src
    a symlink to this tree's src; returns the copy's perfbench directory."""
    bench = tmp / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    child = bench / "child.py"
    child.write_text(patch_child(child.read_text(encoding="utf-8")), encoding="utf-8")
    os.symlink(ROOT / "src", tmp / "src", target_is_directory=True)
    return bench


def _run(run, job: dict, started: float) -> dict:
    res = run.run_child(job, started)
    if "error" in res or res.get("failed"):
        raise ProbeError(f"{job['kind']} child failed: {res.get('error', res.get('failed'))}")
    return res


def witness_inputs(child, every: bool, inputs: dict) -> list:
    """The seed's witness inputs, in cycle order, or with `every` each
    candidate j of each stratum, in j order."""
    if not every:
        return inputs["witness"]["cycle"]
    lo, hi = child.WITNESS_BAND
    out = []
    for s in range(child.WITNESS_STRATA):
        c = round(lo + (hi - lo) * (s + 0.5) / child.WITNESS_STRATA)
        out.extend(child._witness_word(j) for j in range(c - 2, c + 3) if child._essential(j))
    return out


def probe_witness(run, child, every: bool, inputs: dict, started) -> None:
    rows = witness_inputs(child, every, inputs)
    collected = 0
    starts = []
    for word in rows:
        res = _run(run, dict(word, kind="witness"), started)
        probe = res["gc_probe"]
        (_, n), = probe["starts"]
        gens = [g for _, g in probe["collections"]]
        starts.append(n)
        collected += bool(gens)
        inside = ", ".join(f"gen {g}" for g in gens) or "none"
        print(f"witness j={word['j']:4}  gen-0 count at op start {n:3}  "
              f"collections inside the op: {inside}  op {res['lat'][0] * 1e6:.0f} us")
    print(f"witness: {len(rows)} ops, start counts {min(starts)}..{max(starts)}, "
          f"{collected} with a collection inside the op")


def probe_scan(run, inputs: dict, started) -> None:
    job, _ = run.job_for("scan", inputs, 0)
    res = _run(run, job, started)
    probe = res["gc_probe"]
    starts = dict(probe["starts"])
    lat = res["lat"]
    inside = [(k, g) for k, g in probe["collections"] if k < len(lat)]
    for k, g in inside:
        print(f"scan op {k:3}  gen-0 count at op start {starts[k]:3}  collection gen {g}  "
              f"op {lat[k] * 1e6:.0f} us")
    print(f"scan: {len(lat)} ops, {len(inside)} collections inside ops")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--all", action="store_true",
                   help="every candidate j of the witness strata, not just the seed's picks")
    p.add_argument("--no-scan", action="store_true", help="probe the witness workload only")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="gc_probe_") as tmp:
        try:
            bench = make_copy(Path(tmp))
        except ProbeError as exc:
            print(f"gc_probe: {exc}", file=sys.stderr)
            return 1
        sys.path.insert(0, str(bench))
        run = importlib.import_module("run")
        child = importlib.import_module("child")
        try:
            started = time.monotonic()
            # run.py starts no process past HARD_LIMIT_S; the probe runs
            # every input, each with run.py's job and time guard
            run.HARD_LIMIT_S = float("inf")
            names = ["witness"] if args.no_scan else ["witness", "scan"]
            inputs = run.generate(names, args.seed, False, started)
            probe_witness(run, child, args.all, inputs, started)
            if not args.no_scan:
                probe_scan(run, inputs, started)
        except (ProbeError, run.BenchError) as exc:
            print(f"gc_probe: {exc}", file=sys.stderr)
            return 1
        finally:
            sys.path.remove(str(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
