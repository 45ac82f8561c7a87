"""Single command-line entry point for all oracles and scans.

    earring [--json] COMMAND ARGS...

`earring --help` lists the commands and `earring COMMAND --help` shows
one.  Output is one line of text per invocation, except text `lift
--trace`, which prints one line per step and then an `endpoint` line;
with ``--json`` it is one JSON object.  Exit codes: 0 ok, 1 usage or
precondition error, 2 a scan found a property violation.  A refusal is
`COMMAND: error: MESSAGE` on stderr, or with ``--json`` one object with
status "error" on stdout; a usage error is the usage line and
`earring COMMAND: error: MESSAGE` on stderr, or under a leading
``--json`` that one object.

Every command is one entry of COMMANDS, which holds its help line, its
arguments, its options and its handler; the parser and the help text are
read from it.  After the command, an option is `--name value`,
`--name=value` or a bare flag, anywhere among the arguments and spelled
in full, and `--` ends the options.  Every other token is an argument,
so a word such as -2,-1,-2 or -2 -1 -2 is read as a word.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

# checks, lifting, corefree and charts are imported by the handlers that
# call them, so a command loads only the layers it uses
from . import caching, graph, words
from .words import format_ray_word, format_word, parse_word

# name -> (help line, arguments, options, handler), in help order
COMMANDS: dict = {}
# the argument of the word commands: one or more tokens, which the handler
# gets joined and read by parse_word
WORD = ("word", None)


def command(name: str, help_line: str, *arguments, **options):
    """Enter the decorated handler in COMMANDS.  An argument is WORD or a
    (name, type) pair.  An option's default gives its kind: False for a
    flag, an int or a str for a value of that type, and a type for a value
    of that type that must be given.  A handler returns the exit code, or
    None for 0; it refuses its input by raising ValueError, which `main`
    writes."""
    def enter(handler):
        COMMANDS[name] = (help_line, arguments, options, handler)
        return handler
    return enter


class _Usage(Exception):
    """A command line the table does not accept, as (command or None,
    message); the message is None for -h or --help."""


def _synopsis(name: str | None) -> str:
    """The arguments of one command, or of the program, as usage shows them."""
    if name is None:
        return "COMMAND ARGS..."
    _, arguments, options, _ = COMMANDS[name]
    parts = [name]
    for key, default in options.items():
        opt = "--" + key.replace("_", "-") + ("" if default is False else " " + key.upper())
        parts.append(opt if isinstance(default, type) else f"[{opt}]")
    return " ".join(parts + ["WORD..." if arg is WORD else arg[0].upper() for arg in arguments])


def _usage(name: str | None) -> str:
    return f"usage: earring [--json] {_synopsis(name)}"


def _help(name: str | None) -> str:
    if name is not None:
        return f"{_usage(name)}\n\n{COMMANDS[name][0]}"
    rows = [(_synopsis(n), COMMANDS[n][0]) for n in COMMANDS]
    rows += [("", ""), ("--json", "emit one JSON object"), ("-h, --help", "show this help")]
    width = max(len(left) for left, _ in rows)
    return "\n".join([_usage(None), "", "commands:"]
                     + [f"  {left:{width}}  {right}".rstrip() for left, right in rows]
                     + ["", "A WORD is signed indices, as 1 -2 3 or 1,-2,3, or e; START is a "
                        "word with commas;", "a SPEC is v:<word> or e:<word>:<label>:<t>."])


def _typed(name: str, label: str, kind: type, token: str):
    try:
        return kind(token)
    except ValueError:
        raise _Usage(name, f"argument {label}: invalid {kind.__name__} value: {token!r}") from None


def _parse(argv) -> SimpleNamespace:
    """Read `[--json] COMMAND ARGS` from COMMANDS, or raise _Usage."""
    tokens = iter(argv)
    as_json, name = False, next(tokens, None)
    while name == "--json":
        as_json, name = True, next(tokens, None)
    if name in ("-h", "--help"):
        raise _Usage(None, None)
    if name not in COMMANDS:
        raise _Usage(None, "a command is required" if name is None
                     else f"unrecognized option {name}" if name.startswith("--")
                     else f"unknown command {name!r}")
    _, arguments, options, _ = COMMANDS[name]
    values = {key: d for key, d in options.items() if not isinstance(d, type)}
    given = []
    for token in tokens:
        opt, eq, value = token.partition("=")
        key = opt[2:].replace("-", "_")
        if token == "--":
            given += tokens
        elif token in ("-h", "--help"):
            raise _Usage(name, None)
        elif not token.startswith("--"):
            given.append(token)
        elif "_" in opt or key not in options:
            raise _Usage(name, f"unrecognized option {opt}")
        elif options[key] is False:
            if eq:
                raise _Usage(name, f"option {opt} takes no value")
            values[key] = True
        elif not eq and (value := next(tokens, "--")).startswith("--"):
            raise _Usage(name, f"option {opt} needs a value")
        else:
            kind = options[key] if isinstance(options[key], type) else type(options[key])
            values[key] = _typed(name, opt, kind, value)
    missing = options.keys() - values.keys()
    if missing:
        raise _Usage(name, f"option --{missing.pop().replace('_', '-')} is required")
    if arguments == (WORD,) and given:
        return SimpleNamespace(json=as_json, command=name, word=given, **values)
    if len(given) < len(arguments):
        raise _Usage(name, f"argument {arguments[len(given)][0].upper()} is required")
    if len(given) > len(arguments):
        raise _Usage(name, "unrecognized arguments: " + " ".join(given[len(arguments):]))
    for (key, kind), token in zip(arguments, given):
        values[key] = _typed(name, key.upper(), kind, token)
    return SimpleNamespace(json=as_json, command=name, **values)


def _emit(args, payload):
    """Write a handler's answer: `COMMAND INPUT: key=value ...`, or with
    --json one object whose status is "ok".  A refusal is raised, and
    `main` alone writes it."""
    if args.json:
        print(json.dumps({"command": args.command, "input": payload.pop("input", None),
                          "output": payload, "status": "ok"}, sort_keys=True))
    else:
        parts = [f"{k}={v}" for k, v in payload.items() if k != "input"]
        print(f"{args.command} {payload.get('input', '')}: " + " ".join(parts))


def _refuse(args, message: str, text: str) -> int:
    """Write a refusal and return its exit code, 1: `text` on stderr, or
    with --json one object whose status is "error" on stdout, naming the
    word of a word command."""
    if args.json:
        print(json.dumps({"command": args.command, "input": getattr(args, "wtext", None),
                          "message": message, "output": {}, "status": "error"},
                         sort_keys=True), flush=True)
    else:
        print(text, file=sys.stderr)
    return 1


def _vertex_text(v, unwind: int = 0) -> str:
    """The word v.word + R[:unwind]^{-1}; only v's letters past the ray are
    read from v."""
    return format_ray_word(v.ray_len, " ".join(map(str, v.tail)), unwind, v.depth + unwind)


def _trace(trace):
    """The steps of a LiftTrace as {"letter", "kind", "vertex"} dicts.  A
    step moves the depth by at most one, and the ray agreement changes only
    at a vertex of the ray, so the tail is kept as a list of letter tokens
    that each step appends to or pops, never read again from the vertex."""
    p, tail = trace.start.ray_len, [str(x) for x in trace.start.tail]
    for s in trace.steps:
        if s.at.ray_len != p:
            p = s.at.ray_len
        elif s.at.depth > p + len(tail):
            tail.append(str(s.letter))
        elif s.at.depth < p + len(tail):
            tail.pop()
        yield {"letter": s.letter, "kind": s.kind,
               "vertex": format_ray_word(p, " ".join(tail), 0, s.at.depth)}


def _point_spec(spec: str):
    """Parse `v:<word>` or `e:<word>:<label>:<t>` (commas inside words)."""
    from . import charts
    parts = spec.split(":")
    if parts[0] == "v" and len(parts) == 2:
        v = graph.Vertex.make(words.reduce_word(parse_word(parts[1])))
        return charts.PointHat.at_vertex(v)
    if parts[0] == "e" and len(parts) == 4:
        v = graph.Vertex.make(words.reduce_word(parse_word(parts[1])))
        try:
            label = int(parts[2])
        except ValueError:
            raise ValueError(f"edge label must be an integer, not {parts[2]!r}") from None
        try:
            t = float(parts[3])
        except ValueError:
            raise ValueError(f"edge parameter t must be a number, not {parts[3]!r}") from None
        return charts.PointHat.on_edge(charts.edge_at(v, label), t)
    raise ValueError("point spec must be v:<word> or e:<word>:<label>:<t>")


def _chart_name(c) -> str:
    if c.tag == "edge":
        e = c.edge
        return f"U_e[{_vertex_text(e.base)};a{e.label};{e.kind}]"
    return f"U_v[{_vertex_text(c.owner)}]"


@command("survives", "does the reduced word survive the pruning", WORD)
def _survives(args):
    _emit(args, {"input": args.wtext, "verdict": graph.survives(words.reduce_word(args.word))})


@command("island", "island index containing the word, if any", WORD)
def _island(args):
    _emit(args, {"input": args.wtext, "island": graph.island_of(words.reduce_word(args.word))})


@command("ev", "tree-edge labels at a surviving vertex", WORD)
def _ev(args):
    v = words.reduce_word(args.word)
    if not graph.survives(v):
        raise ValueError("vertex does not survive")
    _emit(args, {"input": args.wtext, "e_set": sorted(graph.e_set(v))})


@command("zpath", "anchored edge-path vertices of island j", ("j", int))
def _zpath(args):
    data = graph.island_data(args.j)
    _emit(args, {"input": str(args.j), "word": format_word(data.word),
                 "anchor_length": data.anchor_len, "level": data.level,
                 "z_path": [_vertex_text(z) for z in data.path]})


@command("crosscheck", "compare the two removal rules near island j", ("j", int),
         ("radius", int))
def _crosscheck(args):
    from . import checks
    report = checks.removal_cross_check(args.j, args.radius)
    _emit(args, {"input": f"{args.j} {args.radius}", "examined": report.examined,
                 "removed": report.removed, "disagreements": len(report.disagreements)})
    return 0 if report.ok else 2


@command("lift", "lift the word from a start vertex", WORD, start="e", trace=False)
def _lift(args):
    from . import lifting
    start = graph.Vertex.make(words.reduce_word(parse_word(args.start)))
    trace = lifting.lift_word(args.word, start=start)
    endpoint = _vertex_text(trace.endpoint)
    if args.trace and not args.json:
        for step in _trace(trace):
            print(*step.values())
        print("endpoint", endpoint)
        return
    payload = {"input": args.wtext, "start": _vertex_text(start), "endpoint": endpoint,
               "steps": len(trace.word)}
    if args.trace:
        payload["trace"] = list(_trace(trace))
    _emit(args, payload)


@command("in-k", "does the loop lift back to the base point", WORD)
def _in_k(args):
    from . import lifting
    _emit(args, {"input": args.wtext, "verdict": lifting.in_k(args.word)})


@command("witness", "conjugation certificate for an essential word", WORD, trace=False)
def _witness(args):
    from . import corefree
    cert = corefree.witness_conjugator(args.word)
    payload = {"input": args.wtext, "j": cert.j, "beta_length": cert.beta.length,
               "midpoint": _vertex_text(cert.midpoint),
               "endpoint": _vertex_text(cert.turn, cert.unwind), "verdict": cert.verdict}
    if args.trace:
        payload["trace"] = list(_trace(cert.trace))
    _emit(args, payload)


@command("scan", "run the witness over all words up to a weight", max_weight=int)
def _scan(args):
    from . import corefree
    report = corefree.core_free_scan(args.max_weight)
    payload = {"input": str(args.max_weight), "checked": report.checked,
               "skipped": report.skipped, "failures": len(report.failures)}
    if args.json:
        payload["entries"] = [{"j": e.j, "word": format_word(e.word), "essential": e.essential,
                               "in_k": e.in_k, "verdict": e.verdict} for e in report.entries]
    else:
        payload["entries"] = f"[{len(report.entries)} words]"
    _emit(args, payload)
    return 0 if report.ok else 2


@command("q-point", "project a point upstairs", ("spec", str))
def _q_point(args):
    from . import charts
    x = charts.q_point(_point_spec(args.spec))
    payload = {"input": args.spec}
    if x.is_origin:
        payload["point"] = "origin"
    else:
        payload.update({"circle": x.circle, "t": x.t, "planar": list(charts.planar(x))})
    _emit(args, payload)


@command("charts", "atlas charts containing a point", ("spec", str))
def _charts(args):
    from . import charts
    found = charts.charts_containing(_point_spec(args.spec))
    _emit(args, {"input": args.spec, "charts": [_chart_name(c) for c in found]})


@command("atlas-check", "sampled atlas properties", samples=1000, seed=0)
def _atlas_check(args):
    from . import charts
    report = charts.atlas_check(args.samples, seed=args.seed)
    _emit(args, {"input": str(args.samples), "round_trips": report.round_trips,
                 "overlaps": report.overlaps, "failures": len(report.failures)})
    return 0 if report.ok else 2


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse(argv)
        except _Usage as exc:
            name, message = exc.args
            if message is None:
                print(_help(name), flush=True)
                return 0
            return _refuse(SimpleNamespace(json=argv[:1] == ["--json"], command=name), message,
                           f"{_usage(name)}\nearring{'' if name is None else ' ' + name}: "
                           f"error: {message}")
        try:
            if hasattr(args, "word"):
                # a refusal names the word as given until it is read
                args.wtext = " ".join(args.word)
                args.word = parse_word(args.wtext)
                args.wtext = format_word(args.word)
            # every command refuses a bad EARRING_CACHE_BYTES, whether or
            # not it reaches the word index
            caching.cache_limit()
            code = COMMANDS[args.command][3](args) or 0
        except (ValueError, MemoryError) as exc:
            message = str(exc) if isinstance(exc, ValueError) else "out of memory"
            code = _refuse(args, message, f"{args.command}: error: {message}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `earring ... | head` does: point stdout
        # at devnull, so that the flush at exit does not fail again, and exit 1
        # with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
