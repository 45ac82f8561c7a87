"""The earring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against earring's public API for S seconds, checks
every answer, and prints a human-readable report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from spans recorded around calls into each module (see README.md
in this directory for the workloads, metrics and predictions).

Every op runs in a child process (child.py) that guards its own memory
and time; this process never imports earring.  Inputs are made from the
seed by a separate child, so making them does not warm the memos of a
measured process.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import summarize, self_times  # noqa: E402

WORKLOADS = ("scan", "witness", "oracle_mix", "far_index")
DEFAULT_SEED = 1
# Answer digests of each workload at the default seed; a different answer
# from a later version of the program is counted as a failed op.
PINNED = {
    "scan": "e3e778a67738bf2c",
    "witness": "18fe933951ecd802",
    "oracle_mix": "fbacc6ddb522de00",
    "far_index": "fdff274d8e0230c0",
}
MEM_BYTES = 2 * 2**30       # address-space cap of each measured process
OP_TIMEOUT_S = 60.0         # wall-clock cap of each measured process
HARD_LIMIT_S = 140.0        # no new process starts after this
MIN_PROCESSES = 3           # setup_s is a median over at least this many
CALIB_REF_S = 0.012         # child.calibrate() at the reference machine speed


class BenchError(Exception):
    pass


def run_child(job: dict, started: float, env: dict | None = None) -> dict:
    left = HARD_LIMIT_S + 25.0 - (time.monotonic() - started)
    timeout = max(1.0, min(OP_TIMEOUT_S, left))
    job = dict(job, mem_bytes=MEM_BYTES, timeout_s=timeout)
    full_env = dict(os.environ, **(env or {}))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout + 10.0, cwd=ROOT, env=full_env)
    except subprocess.TimeoutExpired:
        return {"error": "killed"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def generate(names, seed: int, tiny: bool, started: float) -> dict:
    out = run_child({"kind": "gen", "workloads": list(names), "seed": seed,
                     "tiny": tiny}, started)
    if "error" in out:
        raise BenchError(f"input generation failed: {out['error']}")
    return out


# --- jobs of one workload --------------------------------------------------

def job_for(name: str, inputs: dict, k: int) -> tuple:
    """The k-th measured process of a workload, with its op count."""
    data = inputs[name]
    if name == "scan":
        return {"kind": "scan", "max_weight": data["max_weight"],
                "entries": data["entries"], "checked": data["checked"]}, data["checked"]
    if name == "witness":
        return dict(data["cycle"][k % len(data["cycle"])], kind="witness"), 1
    if name == "far_index":
        return dict(data, kind="far_index"), len(data["js"])
    return {"kind": "oracle_mix", "queries": data["queries"], "answers": data["answers"],
            "order": data["order"]}, len(data["order"])


def more_processes(name: str, inputs: dict, k: int, t0: float, seconds: float,
                   started: float) -> bool:
    """Whether to start process k: until `seconds` have passed and at
    least MIN_PROCESSES have run, and on witness up to a whole number of
    cycles, so every run weighs the band's strata alike."""
    if time.monotonic() - started >= HARD_LIMIT_S:
        return False
    if time.monotonic() - t0 < seconds or k < MIN_PROCESSES:
        return True
    return name == "witness" and k % len(inputs["witness"]["cycle"]) != 0


class Tally:
    """Ops, failures, latencies and per-process figures of a set of runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        # per process: [(op time, scale)] and (setup time, scale), where a
        # scale is the reference calibration time over the one measured
        # around that op or set-up
        self.groups: list = []
        self.setup: list = []
        self.rss: list = []
        self.digests: dict = {}
        self.cache_bytes: set = set()
        self.spans: list = []
        self.errors: list = []
        self.wall: dict = {}

    def add(self, res: dict, ops: int, key=None, label: str = "") -> dict:
        self.attempted += ops
        if "error" in res and "ops" not in res:
            self.failed += ops
            self.errors.append(res["error"])
            return res
        self.failed += res["failed"]
        if "error" in res:
            self.errors.append(res["error"])
        timed = [(t, CALIB_REF_S / c) for t, c in zip(res.get("lat", ()), res["calib_s"])
                 if t is not None]
        if timed:
            self.groups.append(timed)
        self.setup.append((res["setup_s"], CALIB_REF_S / res["setup_calib_s"]))
        self.rss.append(res["rss_mb"])
        self.cache_bytes.add(res["cache_bytes"])
        if "digest" in res:
            self.digests.setdefault(key, set()).add(res["digest"])
        if "spans" in res:
            self.spans.extend([label] + list(s) for s in res["spans"])
        return res


def answer_digest(tally: Tally) -> str | None:
    """One digest of a workload's answers, or None if processes disagreed."""
    if any(len(v) != 1 for v in tally.digests.values()):
        return None
    parts = sorted((str(k), next(iter(v))) for k, v in tally.digests.items())
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def check_digest(name: str, tally: Tally, seed: int, tiny: bool) -> str | None:
    """Count every op as failed when processes disagree or, at the
    default seed, when the answers differ from the pinned digest."""
    got = answer_digest(tally)
    pinned = PINNED[name] if (seed == DEFAULT_SEED or name == "scan") and not tiny else None
    if got is None or (pinned is not None and got != pinned):
        tally.failed = tally.attempted
    return got


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# --- untraced run: end-to-end metrics --------------------------------------

def measure(name: str, inputs: dict, seconds: float, started: float) -> Tally:
    tally = Tally()
    t0 = time.monotonic()
    k = 0
    while more_processes(name, inputs, k, t0, seconds, started):
        job, ops = job_for(name, inputs, k)
        tally.add(run_child(job, started), ops, key=job.get("j", 0))
        k += 1
    return tally


def end_to_end(name: str, tally: Tally, calibrated: bool = True) -> dict:
    """Rate, p50 and p90 of each process, then their mean over processes;
    setup time is the median over processes.  Times are scaled to the
    reference machine speed by the calibrations taken around them, unless
    `calibrated` is false.  A witness process runs one op, so there the
    run's ops are pooled."""
    def f(scale):
        return scale if calibrated else 1.0
    groups = [[t * f(s) for t, s in g] for g in tally.groups]
    if name == "witness":
        groups = [[t for g in groups for t in g]]
    mean = statistics.fmean
    return {
        "ops_per_s": (mean([len(g) / sum(g) for g in groups]), "1/s"),
        "op_p50_ms": (mean([statistics.median(g) for g in groups]) * 1e3, "ms"),
        "op_p90_ms": (mean([percentile(g, 90) for g in groups]) * 1e3, "ms"),
        "peak_rss_mb": (max(tally.rss), "MB"),
        "setup_s": (statistics.median([t * f(s) for t, s in tally.setup]), "s"),
    }


# --- traced run: per-layer metrics -----------------------------------------

def traced_pairs(name: str, inputs: dict, seconds: float, started: float):
    """Each measured process twice, untraced and traced, alternating which
    goes first; returns the two tallies."""
    plain, traced = Tally(), Tally()
    t0 = time.monotonic()
    k = 0
    while more_processes(name, inputs, k, t0, seconds, started):
        job, ops = job_for(name, inputs, k)
        order = ((plain, False), (traced, True))
        for tally, trace in (order if k % 2 == 0 else order[::-1]):
            tally.add(run_child(dict(job, trace=trace), started), ops,
                      key=job.get("j", 0), label=f"{name}.{k}")
        k += 1
    return plain, traced


def span_table(tally: Tally) -> dict:
    """summarize() over every process of a tally; span parents are
    indices within one process, so each process is summarized alone."""
    table: dict = {}
    for label in dict.fromkeys(s[0] for s in tally.spans):
        for span, row in summarize(_spans(tally, label)).items():
            old = table.get(span, (0, 0.0, 0.0))
            table[span] = tuple(a + b for a, b in zip(old, row))
    return table


def _spans(tally: Tally, label: str) -> list:
    return [s[1:] for s in tally.spans if s[0] == label]


def _durations(spans: list, name: str, top: bool = False) -> list:
    return [(e - s) / 1e9 for n, s, e, p, _ in spans if n == name and (p == -1 or not top)]


def layer_pass(inputs: dict, started: float, probes: Tally) -> dict:
    """The per-layer metrics, each from traced children at the sizes of the
    workload whose end-to-end metrics it should move."""
    m: dict = {}

    def child(label, job, ops, env=None):
        t0 = time.monotonic()
        res = probes.add(run_child(dict(job, trace=True), started, env), ops, label=label)
        probes.wall[label] = time.monotonic() - t0
        return res

    # words, at far_index sizes: one cold enumeration up to the batch's
    # largest index, then the batch's lookups
    far = inputs["far_index"]
    child("far", dict(far, kind="far_index", prime=True), len(far["js"]))
    sp = _spans(probes, "far")
    m["words.anchor_length.s"] = (sum((e - s) / 1e9 for n, s, e, p, op in sp
                                      if n == "words.anchor_length" and op == -2), "s")
    m["words.nth_word.s"] = (sum((e - s) / 1e9 for n, s, e, p, op in sp
                                 if n == "words.nth_word" and p == -1 and op >= 0), "s")
    m["words.index_of.s"] = (sum(_durations(sp, "words.index_of", top=True)), "s")
    res = child("words_mem", {"kind": "probe_words_mem", "j": max(far["js"])}, 1)
    m["words.tables_mb"] = (res["tables_mb"], "MB")

    # graph, lifting and charts at oracle_mix sizes, caches on and off
    orc = inputs["oracle_mix"]
    mini = orc["mini"]
    job = {"kind": "oracle_mix", "queries": orc["queries"], "answers": orc["answers"],
           "order": mini}
    on = child("oracle", job, len(mini))
    # caches off on a prefix of the same order, which costs tens of times more
    n_off = len(orc["off"])
    off = child("oracle_off", dict(job, order=orc["off"]), n_off,
                env={"EARRING_CACHE_BYTES": "0"})
    sp = _spans(probes, "oracle")
    first_seen: dict = {}
    cold, warm = [], []
    for n, s, e, p, op in sp:
        if n == "graph.survives" and p == -1:
            qi = mini[op]
            (warm if first_seen.setdefault(qi, op) != op else cold).append((e - s) / 1e9)
    m["graph.survives.us_cold"] = (statistics.median(cold) * 1e6, "us")
    m["graph.survives.us_warm"] = (statistics.median(warm) * 1e6, "us")
    for key, span in (("graph.island_of.us", "graph.island_of"),
                      ("graph.e_set.us", "graph.e_set"),
                      ("lifting.in_k.us", "lifting.in_k"),
                      ("charts.round_trip.us", "charts.round_trip")):
        m[key] = (statistics.median(_durations(sp, span, top=True)) * 1e6, "us")
    firsts, repeats = {}, {}
    for qi, t in zip(mini, on["lat"]):
        if qi < orc["hot"] and t is not None:
            if qi in firsts:
                repeats.setdefault(qi, []).append(t)
            else:
                firsts[qi] = t
    m["caching.warm_speedup"] = (
        sum(firsts[qi] for qi in repeats) / sum(statistics.median(r) for r in repeats.values()),
        "ratio")

    # island data and vertex steps at the witness band's sizes
    wit = inputs["witness"]
    band_js = sorted(w["j"] for w in wit["cycle"])
    child("graph", {"kind": "probe_graph", "js": band_js, "mid": wit["probes"][1]["j"],
                    "steps": 200}, 1)
    sp = _spans(probes, "graph")
    m["graph.island_data.ms"] = (statistics.median(_durations(sp, "graph.island_data")) * 1e3,
                                 "ms")
    m["graph.Vertex.step.us"] = (statistics.median(_durations(sp, "graph.Vertex.step")) * 1e6,
                                 "us")

    # one witness each at the band's shortest, middle and longest conjugator
    conj, conj_self, main_self, per_letter = [], [], [], []
    for i, w in enumerate(wit["probes"]):
        res = child(f"witness{i}", dict(w, kind="witness"), 1)
        sp = _spans(probes, f"witness{i}")
        own = self_times(sp)
        for (n, s, e, p, _), o in zip(sp, own):
            if n == "corefree.witness_conjugator":
                conj.append((e - s) / 1e9)
                conj_self.append(o / 1e9)
            elif n == "cli.main":
                main_self.append(o / 1e9)
            elif n == "lifting.lift_word":
                per_letter.append((e - s) / 1e9 / (2 * w["beta_length"] + len(w["word"])))
        if i == 0:
            short_on = res["lat"][0]
    m["lifting.lift_word.us_per_letter.short"] = (per_letter[0] * 1e6, "us")
    m["lifting.lift_word.us_per_letter.long"] = (per_letter[-1] * 1e6, "us")
    m["corefree.witness_conjugator.ms"] = (statistics.median(conj) * 1e3, "ms")
    m["corefree.witness_conjugator.self_ms"] = (statistics.median(conj_self) * 1e3, "ms")
    m["cli.main.self_ms"] = (statistics.median(main_self) * 1e3, "ms")
    res = child("lift_mem", dict(wit["probes"][-1], kind="probe_lift_mem"), 1)
    m["lifting.lift_word.peak_mb"] = (res["peak_mb"], "MB")
    m["caching.retained_mb"] = (res["retained_mb"], "MB")
    res = child("witness_off", dict(wit["probes"][0], kind="witness"), 1,
                env={"EARRING_CACHE_BYTES": "0"})
    short_off = res["lat"][0]
    m["caching.off_ratio"] = (
        (sum(x for x in off["lat"] if x is not None) + short_off)
        / (sum(x for x in on["lat"][:n_off] if x is not None) + short_on), "ratio")

    # the whole scan
    scan = inputs["scan"]
    child("scan", {"kind": "scan", "max_weight": scan["max_weight"],
                   "entries": scan["entries"], "checked": scan["checked"]}, scan["checked"])
    m["corefree.core_free_scan.s"] = (sum(_durations(_spans(probes, "scan"),
                                                      "corefree.core_free_scan")), "s")
    return m


# --- report ----------------------------------------------------------------

def meta(seed: int, tally: Tally) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "earring", "*.py"))):
        with open(path, "rb") as f:
            src.update(f.read())
    return {"commit": commit, "source_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "earring_cache_bytes": sorted(tally.cache_bytes)}


def write_out(name: str, seed: int, trace: int, record: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test; no pinned digests")
    args = p.parse_args(argv)
    started = time.monotonic()
    name = args.workload
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "earring")):
            raise BenchError("no earring sources under src/ in this checkout")
        if args.trace == 0:
            inputs = generate([name], args.seed, args.tiny, started)
            tally = measure(name, inputs, args.seconds, started)
            digest = check_digest(name, tally, args.seed, args.tiny)
            if not tally.groups:
                raise BenchError(f"no op completed: {tally.errors[:3]}")
            metrics = end_to_end(name, tally)
            raw = end_to_end(name, tally, calibrated=False)
            record_tallies = {"run": tally}
        else:
            inputs = generate(WORKLOADS, args.seed, args.tiny, started)
            plain, traced = traced_pairs(name, inputs, args.seconds, started)
            probes = Tally()
            try:
                metrics = layer_pass(inputs, started, probes)
            except (statistics.StatisticsError, KeyError, IndexError, ZeroDivisionError) as exc:
                raise BenchError(f"a layer probe gave no measurement ({exc!r}): "
                                 f"{probes.errors[:3]}") from None
            if not plain.groups or not traced.groups:
                raise BenchError(f"no op completed: {(plain.errors + traced.errors)[:3]}")
            untraced_rate = end_to_end(name, plain)["ops_per_s"][0]
            traced_rate = end_to_end(name, traced)["ops_per_s"][0]
            metrics["trace.ops_per_s.untraced"] = (untraced_rate, "1/s")
            metrics["trace.ops_per_s.traced"] = (traced_rate, "1/s")
            metrics["trace.speed_ratio"] = (traced_rate / untraced_rate, "ratio")
            tally = Tally()
            for t in (plain, traced, probes):
                tally.attempted += t.attempted
                tally.failed += t.failed
                tally.errors += t.errors
                tally.cache_bytes |= t.cache_bytes
            digest = None
            record_tallies = {"untraced": plain, "traced": traced, "probes": probes}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = meta(args.seed, tally)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  " +
          "  ".join(f"{k}={v}" for k, v in info.items() if k != "seed"))
    print(f"  attempted {tally.attempted}  failed {tally.failed}  "
          f"failed_frac {tally.failed / max(1, tally.attempted):.4f}  "
          f"answer digest {digest}")
    for err in tally.errors[:5]:
        print(f"  error: {err}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    if args.trace == 0:
        print("  uncalibrated: " + "  ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()))
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": name, "trace": args.trace, "meta": info, "digest": digest,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": reported}
    if args.trace == 0:
        record["uncalibrated"] = {k: v for k, (v, _) in raw.items()}
    else:
        record["spans"] = {}
        for label, t in record_tallies.items():
            record["spans"][label] = t.spans
            if t.wall:
                print("  probe wall seconds: " +
                      "  ".join(f"{k} {v:.2f}" for k, v in t.wall.items()))
            if t.spans:
                print(f"  self time by span ({label}): calls, total s, self s")
                for span, (calls, total, own) in sorted(span_table(t).items()):
                    print(f"    {span:36s} {calls:8d} {total:10.4f} {own:10.4f}")
    print(f"  written {os.path.relpath(write_out(name, args.seed, args.trace, record), ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
