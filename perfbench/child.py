"""One measured process of the benchmark.

run.py starts `python3 perfbench/child.py` with a JSON job on stdin; the
child prints one JSON result as its last line of output.  Each child
caps its own address space and wall time before it imports earring, so
an op that runs out of either fails without stalling the run.  The
earring package is imported from the checkout's `src/`, never from an
installed copy.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402


class Timeout(BaseException):
    """Raised by the child's own wall-clock guard."""


def _on_alarm(signum, frame):
    raise Timeout()


def _guard(mem_bytes: int, timeout_s: float) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)


def _load_earring():
    """Import earring from the checkout and answer a first trivial query;
    returns the package and the seconds that took."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import earring
    earring.survives(())
    setup_s = time.perf_counter() - t0
    where = os.path.realpath(earring.__file__)
    if not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"earring imported from {where}, not from this checkout")
    return earring, setup_s


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work of the kind earring
    does (building, hashing and looking up tuples), with no earring code
    in it.  Timed between ops, it tells how fast the machine runs then."""
    t0 = time.perf_counter()
    memo: dict = {}
    base = tuple(range(1, 257))
    for k in range(4000):
        w = base[:k % 256] + (k & 1,)
        memo[w] = memo.get(w, 0) + 1
    return time.perf_counter() - t0


CALIB_PERIOD_S = 0.25   # time calibrate() again after this long among the ops


class Speed:
    """Calibrations taken between ops, at most every CALIB_PERIOD_S, so
    that each op can be scaled by the machine speed around it."""

    def __init__(self) -> None:
        self.marks: list = []      # (ops done, calibration seconds)
        self.due = 0.0

    def mark(self, done: int) -> None:
        self.marks.append((done, calibrate()))
        self.due = time.perf_counter() + CALIB_PERIOD_S

    def tick(self, done: int) -> None:
        """Call between ops, outside their timing."""
        if time.perf_counter() >= self.due:
            self.mark(done)

    def per_op(self, n: int) -> list:
        """For ops 0..n-1, the mean of the calibrations just before and
        just after the op."""
        done = [d for d, _ in self.marks]
        out = []
        for i in range(n):
            before = self.marks[bisect.bisect_right(done, i) - 1][1]
            after = self.marks[min(bisect.bisect_left(done, i + 1), len(done) - 1)][1]
            out.append((before + after) / 2)
        return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# --- input generation ------------------------------------------------------

WITNESS_BAND = (100, 250)
WITNESS_STRATA = 16
FAR_MAX_J = reference.class_end(10)   # last word of weight <= 10
FAR_BATCH = 2000
ORACLE_BATCH = 12000
ORACLE_HOT = 256
# Two thirds of the queries repeat the hot set.  At one half, p50 fell on
# the step between warm and cold queries and moved with every seed.
ORACLE_FRESH_SHARE = 1 / 3
ORACLE_MINI = 3000
ORACLE_OFF = 300


def _bit_reversed(n: int) -> list:
    """0..n-1 (n a power of two) in bit-reversal order, so every prefix of
    the cycle spreads evenly over the strata."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def _essential(j: int) -> bool:
    return bool(reference.reduce_word(reference.nth_word(j)))


def gen_scan(seed: int, tiny: bool) -> dict:
    max_weight = 4 if tiny else 5
    entries = [[j, list(reference.nth_word(j)), _essential(j)]
               for j in range(1, reference.class_end(max_weight) + 1)]
    return {"max_weight": max_weight, "entries": entries,
            "checked": sum(1 for e in entries if e[2])}


def _witness_word(j: int) -> dict:
    return {"j": j, "word": list(reference.nth_word(j)),
            "beta_length": reference.anchor_length(j)}


def gen_witness(seed: int, tiny: bool) -> dict:
    """One seeded essential word near each of 16 evenly spaced points of
    the j band, in an order that keeps any prefix of the cycle spread over
    the band.  Each word is within 2 of its point, so the cost of a cycle
    hardly depends on the seed."""
    rng = random.Random(seed)
    lo, hi = (20, 40) if tiny else WITNESS_BAND
    strata = 2 if tiny else WITNESS_STRATA
    picks = []
    for s in range(strata):
        c = round(lo + (hi - lo) * (s + 0.5) / strata)
        picks.append(rng.choice([j for j in range(c - 2, c + 3) if _essential(j)]))
    cycle = [_witness_word(picks[s]) for s in _bit_reversed(strata)]
    # fixed band probes: shortest, middle and longest conjugator
    probes = []
    for j in (lo, (lo + hi) // 2, hi):
        while not _essential(j):
            j -= 1
        probes.append(_witness_word(j))
    return {"cycle": cycle, "probes": probes}


def gen_far(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    top, n = (5000, 200) if tiny else (FAR_MAX_J, FAR_BATCH)
    js = rng.sample(range(1, top + 1), n)
    return {"js": js,
            "words": [list(reference.nth_word(j)) for j in js],
            "anchors": [reference.anchor_length(j) for j in js]}


def gen_oracle(seed: int, tiny: bool) -> dict:
    """Short-word queries near the base point and near anchors j <= 50:
    draws with replacement from a hot set, and fresh queries, shuffled.
    Answers are computed here, in another process than the measured one."""
    from earring import graph, words
    rng = random.Random(seed)
    n = 600 if tiny else ORACLE_BATCH
    centers = [()] + [words.anchor(j) for j in range(1, 51)]

    def walk():
        v = graph.Vertex.make(rng.choice(centers))
        for _ in range(rng.randrange(41)):
            label = rng.choice(sorted(v.e_set))
            v = v.step(label if rng.random() < 0.5 else -label)[1]
        return v.word

    def perturb(w):
        x = rng.choice((1, -1)) * rng.randint(1, 5)
        if w and rng.random() < 0.5:
            w = w[:-1]
        return w + (x,) if not w or w[-1] != -x else w

    def edge_word():
        return [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 12))]

    queries: list = []
    seen: set = set()
    while len(queries) < ORACLE_HOT + round(n * ORACLE_FRESH_SHARE):
        v = walk()
        roll = rng.random()
        if roll < 0.45:
            w = perturb(v) if rng.random() < 0.5 else v
            kind = ("survives", "island")[rng.random() < 0.35]
            q = [kind, list(w)]
        elif roll < 0.6:
            q = ["eset", list(v)]
        elif roll < 0.7:
            q = ["in_k", edge_word()]
        elif roll < 0.8:
            q = ["lift", list(v), edge_word()]
        else:
            label = rng.choice(sorted(graph.e_set(v)) + [6, 7])
            t = round(rng.uniform(0.01, 0.99), 6) if rng.random() < 0.8 else None
            q = ["chart", list(v), label, t]
        key = json.dumps(q)
        if key not in seen:
            seen.add(key)
            queries.append(q)
    ops = Ops()
    answers = [ops.answer(q) for q in queries]
    hot = list(range(ORACLE_HOT))
    fresh = list(range(ORACLE_HOT, len(queries)))
    order = [rng.choice(hot) for _ in range(n - len(fresh))] + fresh
    rng.shuffle(order)
    scale = 10 if tiny else 1
    return {"queries": queries, "answers": answers, "order": order,
            "mini": order[:ORACLE_MINI // scale], "off": order[:ORACLE_OFF // scale],
            "hot": ORACLE_HOT}


class Ops:
    """The oracle_mix query kinds, called through earring's module
    attributes so that a tracer installed on them sees every call."""

    def __init__(self, tracer=None) -> None:
        from earring import charts, graph, lifting
        self.charts, self.graph, self.lifting = charts, graph, lifting
        self.tracer = tracer

    def _round_trip(self, v, label, t):
        charts = self.charts
        vert = self.graph.Vertex.make(tuple(v))
        if t is None:
            p = charts.PointHat.at_vertex(vert)
        else:
            p = charts.PointHat.on_edge(charts.edge_at(vert, label), t)
        x = charts.q_point(p)
        found = charts.charts_containing(p)
        return [len(found), all(charts.local_inverse(c, x) == p for c in found)]

    def answer(self, q):
        kind = q[0]
        graph, lifting = self.graph, self.lifting
        if kind == "survives":
            return graph.survives(tuple(q[1]))
        if kind == "island":
            return graph.island_of(tuple(q[1]))
        if kind == "eset":
            return sorted(graph.e_set(tuple(q[1])))
        if kind == "in_k":
            return lifting.in_k(tuple(q[1]))
        if kind == "lift":
            start = graph.Vertex.make(tuple(q[1]))
            return list(lifting.lift_word(tuple(q[2]), start=start).endpoint.word)
        if kind == "chart":
            if self.tracer is not None:
                return self.tracer.span("charts.round_trip", self._round_trip, *q[1:])
            return self._round_trip(*q[1:])
        raise ValueError(f"unknown query kind {kind!r}")


# --- measured processes ----------------------------------------------------

def run_scan(earring, job, tracer, speed):
    corefree = earring.corefree
    lat: list = []
    inner = corefree.witness_conjugator
    since = [0.0]

    def stamped(w):
        # an op ends when its certificate is made; the next one starts
        # after any calibration taken in between
        cert = inner(w)
        lat.append(time.perf_counter() - since[0])
        speed.tick(len(lat))
        since[0] = time.perf_counter()
        return cert

    corefree.witness_conjugator = stamped
    since[0] = time.perf_counter()
    try:
        report = corefree.core_free_scan(job["max_weight"])
    except (MemoryError, Timeout) as exc:
        return {"ops": job["checked"], "failed": job["checked"], "error": type(exc).__name__}
    got = [[e.j, list(e.word), e.essential] for e in report.entries]
    failed = sum(1 for e in report.entries if e.essential and e.verdict is not True)
    skipped = len(job["entries"]) - job["checked"]
    if (got != job["entries"] or report.checked != job["checked"]
            or report.skipped != skipped or report.failures):
        failed = job["checked"]
    answers = [[e.j, e.in_k, e.verdict] for e in report.entries]
    return {"ops": job["checked"], "failed": failed, "lat": lat, "digest": digest(answers)}


def run_witness(earring, job, tracer, speed):
    from earring import cli, corefree, words
    library = corefree.witness_conjugator
    if tracer is not None:
        tracer.install(earring)
    argv = ["--json", "witness"] + [str(x) for x in job["word"]]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.op = 0
                rc = tracer.span("cli.main", cli.main, argv)
            else:
                rc = cli.main(argv)
            t1 = time.perf_counter()
    except (MemoryError, Timeout) as exc:
        return {"ops": 1, "failed": 1, "error": type(exc).__name__}
    rss = _rss_mb()
    spans = list(tracer.spans) if tracer is not None else None
    out = json.loads(buf.getvalue())
    cert = library(tuple(job["word"]))
    expect = {"j": cert.j, "beta_length": len(cert.beta),
              "midpoint": words.format_word(cert.midpoint.word),
              "endpoint": words.format_word(cert.conjugate_endpoint.word),
              "verdict": cert.verdict}
    ok = (rc == 0 and out.get("status") == "ok" and out.get("output") == expect
          and cert.verdict is True and cert.j == job["j"]
          and len(cert.beta) == job["beta_length"]
          and cert.beta == reference_anchor(job["beta_length"]))
    result = {"ops": 1, "failed": 0 if ok else 1, "lat": [t1 - t0], "rss_mb": rss,
              "digest": digest(out.get("output"))}
    if spans is not None:
        # the answer check above is not part of the op
        result["spans"] = spans
    return result


def reference_anchor(n: int) -> tuple:
    return tuple(1 if p % 2 == 0 else 2 for p in range(n))


def run_far(earring, job, tracer, speed):
    from earring import words
    nth_word, index_of, anchor_length = words.nth_word, words.index_of, words.anchor_length
    if tracer is not None:
        nth_word = tracer.wrap(nth_word, "words.nth_word")
        index_of = tracer.wrap(index_of, "words.index_of")
        anchor_length = tracer.wrap(anchor_length, "words.anchor_length")
    lat: list = []
    answers: list = []
    failed = 0
    js = job["js"]
    try:
        if job.get("prime"):
            # cold enumeration up to the batch's largest index, in its own span
            tracer.op = -2
            anchor_length(max(js))
        for k, j in enumerate(js):
            if tracer is not None:
                tracer.op = k
            try:
                t0 = time.perf_counter()
                w = nth_word(j)
                back = index_of(w)
                a = anchor_length(j)
                t1 = time.perf_counter()
            except MemoryError:
                failed += 1
                lat.append(None)
                continue
            lat.append(t1 - t0)
            answers.append([j, list(w), a])
            if back != j or list(w) != job["words"][k] or a != job["anchors"][k]:
                failed += 1
            speed.tick(k + 1)
    except Timeout:
        failed += len(js) - len(lat)
    return {"ops": len(js), "failed": failed, "lat": lat, "digest": digest(sorted(answers))}


def run_oracle(earring, job, tracer, speed):
    ops = Ops(tracer)
    queries, answers = job["queries"], job["answers"]
    lat: list = []
    got_by_query: dict = {}
    failed = 0
    order = job["order"]
    try:
        for k, qi in enumerate(order):
            if tracer is not None:
                tracer.op = k
            try:
                t0 = time.perf_counter()
                got = ops.answer(queries[qi])
                t1 = time.perf_counter()
            except (MemoryError, ValueError):
                failed += 1
                lat.append(None)
                continue
            lat.append(t1 - t0)
            got_by_query[qi] = got
            if got != answers[qi]:
                failed += 1
            speed.tick(k + 1)
    except Timeout:
        failed += len(order) - len(lat)
    return {"ops": len(order), "failed": failed, "lat": lat,
            "digest": digest(sorted(got_by_query.items()))}


# --- layer probes ----------------------------------------------------------

def probe_words_mem(earring, job, tracer, speed):
    """Bytes the words layer retains after enumerating up to the largest
    far_index index, by tracemalloc."""
    from earring import words
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    words.anchor_length(job["j"])
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return {"ops": 1, "failed": 0, "tables_mb": kept / 2**20}


def probe_graph(earring, job, tracer, speed):
    """First island_data call per j of the witness band, and cold vertex
    steps at the middle of the band's vertex lengths."""
    from earring import graph, words
    words.anchor_length(max(job["js"]))
    tracer.op = -3
    for j in job["js"]:
        tracer.span("graph.island_data", graph.island_data, j)
    # walk on along the zig-zag ray past the anchor: every step is a tree
    # step onto a vertex not seen before
    v = graph.Vertex.make(words.anchor(job["mid"]))
    for _ in range(job["steps"]):
        letter = 1 if len(v.word) % 2 == 0 else 2
        v = tracer.span("graph.Vertex.step", v.step, letter)[1]
    return {"ops": 1, "failed": 0}


def probe_lift_mem(earring, job, tracer, speed):
    """Peak traced memory of one long lift, and what the caches still
    hold once its trace is dropped."""
    from earring import lifting, words
    word = tuple(job["word"])
    beta = words.anchor(job["j"])
    gamma = beta + word + words.invert(beta)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    trace = lifting.lift_word(gamma)
    end = trace.endpoint.word
    peak = tracemalloc.get_traced_memory()[1] - base
    del trace
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    ok = end != ()
    return {"ops": 1, "failed": 0 if ok else 1, "peak_mb": peak / 2**20,
            "retained_mb": kept / 2**20}


KINDS = {
    "scan": run_scan,
    "witness": run_witness,
    "far_index": run_far,
    "oracle_mix": run_oracle,
    "probe_words_mem": probe_words_mem,
    "probe_graph": probe_graph,
    "probe_lift_mem": probe_lift_mem,
}


def main() -> int:
    job = json.load(sys.stdin)
    _guard(job.get("mem_bytes", 2 * 2**30), job.get("timeout_s", 60.0))
    earring, setup_s = _load_earring()
    kind = job["kind"]
    if kind == "gen":
        gens = {"scan": gen_scan, "witness": gen_witness, "far_index": gen_far,
                "oracle_mix": gen_oracle}
        result = {name: gens[name](job["seed"], job["tiny"]) for name in job["workloads"]}
    else:
        tracer = Tracer() if job.get("trace") else None
        if tracer is not None and kind != "witness":
            tracer.install(earring)
        speed = Speed()
        speed.mark(0)
        result = KINDS[kind](earring, job, tracer, speed)
        result["setup_s"] = setup_s
        result.setdefault("rss_mb", _rss_mb())
        lat = result.get("lat", [])
        speed.mark(len(lat))
        result["calib_s"] = speed.per_op(len(lat))
        result["setup_calib_s"] = speed.marks[0][1]
        result["cache_bytes"] = earring.caching.cache_limit()
        if tracer is not None:
            result.setdefault("spans", tracer.spans)
    signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
