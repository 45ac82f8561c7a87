"""Single command-line entry point for all oracles and scans.

Output is one line of text per invocation, or one JSON object with
``--json``.  Exit codes: 0 ok, 1 usage or precondition error, 2 a scan
found a property violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import charts, corefree, graph, lifting, words
from .words import format_word, parse_word

# The longest vertex the CLI spells out, and the most steps `witness
# --trace` prints.  A witness itself takes O(|w|) time and memory at any
# index, so this bounds only the output: a longer vertex is printed in the
# compact form `ray[p] <letters> ray[m]^-1`, the ray prefix R[:p], the
# letters past it, and the inverse of a ray prefix R[:m].  The witness of
# a_12 (j = 41,501,135) has vertices of 777,124,938 and 1,554,249,877
# letters.
MAX_LIFT_LETTERS = 2 ** 22

# argparse takes a token that starts with '-' for an option unless it
# reads as one negative number or holds a space; a comma word such as
# -2,-1,-2 is passed on with a leading space, which parse_word strips
_COMMA_WORD = re.compile(r"-\d+,[-\d,\s]*")


def _emit(args, command, payload, status="ok", message=None):
    if args.json:
        obj = {
            "command": command,
            "input": payload.pop("input", None),
            "output": payload,
            "status": status,
        }
        if message:
            obj["message"] = message
        print(json.dumps(obj, sort_keys=True))
    else:
        if status != "ok":
            print(f"{command}: error: {message}")
        else:
            parts = [f"{k}={v}" for k, v in payload.items() if k != "input"]
            print(f"{command} {payload.get('input', '')}: " + " ".join(parts))


def _word_arg(tokens) -> tuple:
    return parse_word(" ".join(tokens))


def _vertex_text(v, unwind: int = 0) -> str:
    """The word v.word + R[:unwind]^{-1}, spelled out as format_word does,
    or in the compact form when it has more than MAX_LIFT_LETTERS letters.
    The ray runs are written as text directly, never as tuples."""
    p = v.ray_len
    if v.depth + unwind <= MAX_LIFT_LETTERS:
        ray = " ".join(["1 2"] * (p // 2) + ["1"] * (p % 2))
        back = " ".join(["-1"] * (unwind % 2) + ["-2 -1"] * (unwind // 2))
    else:
        ray = f"ray[{p}]" if p else ""
        back = f"ray[{unwind}]^-1" if unwind else ""
    tail = v.tail
    return " ".join(part for part in (ray, tail and format_word(tail), back) if part) or "e"


def _point_spec(spec: str):
    """Parse `v:<word>` or `e:<word>:<label>:<t>` (commas inside words)."""
    parts = spec.split(":")
    if parts[0] == "v" and len(parts) == 2:
        v = graph.Vertex.make(words.reduce_word(parse_word(parts[1])))
        return charts.PointHat.at_vertex(v)
    if parts[0] == "e" and len(parts) == 4:
        v = graph.Vertex.make(words.reduce_word(parse_word(parts[1])))
        label = int(parts[2])
        if label < 1:
            raise ValueError("edge label must be a positive index")
        t = float(parts[3])
        return charts.PointHat.on_edge(charts.edge_at(v, label), t)
    raise ValueError("point spec must be v:<word> or e:<word>:<label>:<t>")


def _chart_name(c) -> str:
    if c.tag == "edge":
        e = c.edge
        return f"U_e[{format_word(e.base.word)};a{e.label};{e.kind}]"
    return f"U_v[{format_word(c.owner.word)}]"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="earring", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = p.add_subparsers(dest="command", required=True)

    def word_cmd(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("word", nargs="+", help="signed indices, or `e`")
        return sp

    word_cmd("survives", "does the reduced word survive the pruning")
    word_cmd("island", "island index containing the word, if any")
    word_cmd("ev", "tree-edge labels at a surviving vertex")

    sp = sub.add_parser("zpath", help="anchored edge-path vertices of island j")
    sp.add_argument("j", type=int)

    sp = sub.add_parser("crosscheck", help="compare the two removal rules near island j")
    sp.add_argument("j", type=int)
    sp.add_argument("radius", type=int)

    sp = word_cmd("lift", "lift the word from a start vertex")
    sp.add_argument("--start", default="e", help="start vertex word (commas)")
    sp.add_argument("--trace", action="store_true")

    word_cmd("in-k", "does the loop lift back to the base point")

    sp = word_cmd("witness", "conjugation certificate for an essential word")
    sp.add_argument("--trace", action="store_true")

    sp = sub.add_parser("scan", help="run the witness over all words up to a weight")
    sp.add_argument("--max-weight", type=int, required=True)

    sp = sub.add_parser("q-point", help="project a point upstairs")
    sp.add_argument("spec")

    sp = sub.add_parser("charts", help="atlas charts containing a point")
    sp.add_argument("spec")

    sp = sub.add_parser("atlas-check", help="sampled atlas properties")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    return p


def run(args) -> int:
    cmd = args.command
    if cmd in ("survives", "island", "ev", "in-k", "lift", "witness"):
        w = _word_arg(args.word)
        wtext = format_word(w)
        if cmd == "survives":
            v = words.reduce_word(w)
            _emit(args, cmd, {"input": wtext, "verdict": graph.survives(v)})
            return 0
        if cmd == "island":
            v = words.reduce_word(w)
            j = graph.island_of(v)
            _emit(args, cmd, {"input": wtext, "island": j})
            return 0
        if cmd == "ev":
            v = words.reduce_word(w)
            if not graph.survives(v):
                _emit(args, cmd, {"input": wtext}, "error", "vertex does not survive")
                return 1
            es = sorted(graph.e_set(v))
            _emit(args, cmd, {"input": wtext, "e_set": es})
            return 0
        if cmd == "in-k":
            _emit(args, cmd, {"input": wtext, "verdict": lifting.in_k(w)})
            return 0
        if cmd == "lift":
            start = graph.Vertex.make(words.reduce_word(parse_word(args.start)))
            trace = lifting.lift_word(w, start=start)
            payload = {
                "input": wtext,
                "start": format_word(start.word),
                "endpoint": format_word(trace.endpoint.word),
                "steps": len(trace.word),
            }
            if args.trace:
                payload["trace"] = [
                    {"letter": s.letter, "kind": s.kind, "vertex": format_word(s.at.word)}
                    for s in trace.steps
                ]
            if args.json or not args.trace:
                _emit(args, cmd, payload)
            else:
                for s in trace.steps:
                    print(f"{s.letter} {s.kind} {format_word(s.at.word)}")
                print(f"endpoint {format_word(trace.endpoint.word)}")
            return 0
        if cmd == "witness":
            try:
                cert = corefree.witness_conjugator(w)
            except ValueError as exc:
                _emit(args, cmd, {"input": wtext}, "error", str(exc))
                return 1
            steps = 2 * cert.beta.length + len(w)
            if args.trace and steps > MAX_LIFT_LETTERS:
                _emit(args, cmd, {"input": wtext}, "error",
                      f"the lift of beta w beta^-1 has {steps} steps; --trace prints "
                      f"at most {MAX_LIFT_LETTERS}")
                return 1
            payload = {
                "input": wtext,
                "j": cert.j,
                "beta_length": cert.beta.length,
                "midpoint": _vertex_text(cert.midpoint),
                "endpoint": _vertex_text(cert.turn, cert.unwind),
                "verdict": cert.verdict,
            }
            if args.trace:
                payload["trace"] = [
                    {"letter": s.letter, "kind": s.kind, "vertex": format_word(s.at.word)}
                    for s in cert.trace.steps
                ]
            _emit(args, cmd, payload)
            return 0

    if cmd == "zpath":
        data = graph.island_data(args.j)
        letters = sum(rec[0] for rec in data.path)
        if letters > MAX_LIFT_LETTERS:
            _emit(args, cmd, {"input": str(args.j)}, "error",
                  f"the z_path of island {args.j} has {letters} letters, over the "
                  f"limit of {MAX_LIFT_LETTERS}")
            return 1
        _emit(args, cmd, {
            "input": str(args.j),
            "word": format_word(data.word),
            "anchor_length": data.anchor_len,
            "level": data.level,
            "z_path": [format_word(z) for z in data.z_path],
        })
        return 0

    if cmd == "crosscheck":
        report = graph.removal_cross_check(args.j, args.radius)
        _emit(args, cmd, {
            "input": f"{args.j} {args.radius}",
            "examined": report.examined,
            "removed": report.removed,
            "disagreements": len(report.disagreements),
        })
        return 0 if report.ok else 2

    if cmd == "scan":
        try:
            report = corefree.core_free_scan(args.max_weight)
        except ValueError as exc:
            _emit(args, cmd, {"input": str(args.max_weight)}, "error", str(exc))
            return 1
        entries = [
            {
                "j": e.j,
                "word": format_word(e.word),
                "essential": e.essential,
                "in_k": e.in_k,
                "verdict": e.verdict,
            }
            for e in report.entries
        ]
        payload = {
            "input": str(args.max_weight),
            "checked": report.checked,
            "skipped": report.skipped,
        }
        if report.refused:
            payload["refused"] = report.refused
        payload["failures"] = len(report.failures)
        payload["entries"] = entries if args.json else f"[{len(entries)} words]"
        _emit(args, cmd, payload)
        return 0 if report.ok else 2

    if cmd in ("q-point", "charts"):
        p = _point_spec(args.spec)
        if cmd == "q-point":
            x = charts.q_point(p)
            payload = {"input": args.spec}
            if x.is_origin:
                payload["point"] = "origin"
            else:
                payload.update({"circle": x.circle, "t": x.t})
                payload["planar"] = list(charts.planar(x))
            _emit(args, cmd, payload)
            return 0
        found = charts.charts_containing(p)
        _emit(args, cmd, {"input": args.spec, "charts": [_chart_name(c) for c in found]})
        return 0

    if cmd == "atlas-check":
        report = charts.atlas_check(args.samples, seed=args.seed)
        _emit(args, cmd, {
            "input": str(args.samples),
            "round_trips": report.round_trips,
            "overlaps": report.overlaps,
            "failures": len(report.failures),
        })
        return 0 if report.ok else 2

    raise AssertionError(f"unhandled command {cmd}")


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if _COMMA_WORD.fullmatch(a) else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return run(args)
    except (ValueError, MemoryError) as exc:
        message = str(exc) if isinstance(exc, ValueError) else "out of memory"
        if args.json:
            print(json.dumps({
                "command": args.command,
                "input": None,
                "output": {},
                "status": "error",
                "message": message,
            }, sort_keys=True))
        else:
            print(f"{args.command}: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
