"""Same answers, committed: the CLI's output pinned invocation by
invocation, and the oracles pinned over a bounded domain of words.

Each invocation below runs in-process through `cli.main`.  Its pin is the
first 16 hex digits of the SHA-256 of the JSON array [exit code, stdout,
stderr], so a failure names the command whose answer moved.  The answers
do not depend on the caches or on the order the invocations run in.

The oracle domain is every reduced word within 3 letters of an edge-path
vertex of the islands j <= 20, or within 2 letters for j <= 40, over
a_1 ... a_{n_j+2} and their inverses: 25,636 words.  The domain's pin is
the same kind of digest, of the JSON list of its words in sorted order,
and each oracle's pin is the digest of its answers in that order (on the
survivors only, for `e_set` and `Vertex.hit`).

A change that moves an answer on purpose repins that invocation or oracle
alone.  Print its new digest with

    PYTHONPATH=src:tests python -c "from test_same_answers import answer_digest; print(answer_digest('zpath 9'))"
    PYTHONPATH=src:tests python -c "from test_same_answers import oracle_digest; print(oracle_digest('classify'))"

replace its entry in PINS or ORACLE_PINS, and say in CHANGES.md which
answer moved and why.
"""

import contextlib
import functools
import hashlib
import io
import json

import pytest

from earring import cli
from earring.graph import Vertex, classify, e_set, island_data, island_of, survives

# invocation, as the words after `earring` -> digest of (exit code, stdout,
# stderr); no argument holds a space
PINS = {
    'witness 3': 'ae29a4ce355321a7',
    'witness --trace 3': '7c00b1f4f33969f1',
    '--json witness 3': '93afa1f4da650c44',
    '--json witness --trace 3': 'c94c64121b44660d',
    'witness 1 2 -2': 'd4cafab5970bd7dd',
    'witness --trace 1 2 -2': '814eb683e060dcf5',
    '--json witness 1 2 -2': '4ece0bdf02d7e4c8',
    '--json witness --trace 1 2 -2': 'b472b613d0710cf8',
    'witness -2 -1 -2': 'c124e979bdef8b6c',
    'witness --trace -2 -1 -2': 'ae8f8d41e801e9cb',
    '--json witness -2 -1 -2': '39302ab62af14dcd',
    '--json witness --trace -2 -1 -2': 'f2bfa2f7d5013c65',
    'witness 3 2 -2': 'c4a6ae58ef7cbacb',
    'witness --trace 3 2 -2': '98846268128268b8',
    '--json witness 3 2 -2': '7db33c39d62d37f2',
    '--json witness --trace 3 2 -2': '035e6855d97c09f7',
    'witness 12': 'f0a21bf306e7bcce',
    'lift --trace 1 2 3': 'b062b5c0a2ee1487',
    'lift --start 1,2 -1,3': '5216d2c683aa19db',
    'zpath 1': 'a4c25a1c20decbea',
    'zpath 9': '067d1f6a01e432d4',
    'charts e:e:3:0.5': 'a04912d2002b8087',
    'charts v:1,2,1,2': 'd16c1ceec28d1a91',
    'scan --max-weight 5': '2c756e735f146add',
    'crosscheck 9 2': 'bd4e8542590eee3c',
    'atlas-check --samples 100 --seed 5': '6c5cdea1fb2bd024',
    'lift --trace 1,2,3,-3,2,1,4,5': 'd4680ea5369c0fb1',
    'lift --trace --start 1,2,3 -3 -2 4 1': '9dcdf237dfcb80d1',
    'lift --start 1,2,-1 2,3': '53346262577f8d7f',
    'lift --trace --start 1,-2 2 2 1 -2 -1 -1 3 -1': '51843870999bcaed',
    'lift --trace --start -1 1 1 2 -1 3 -3 -2 -1': 'c9295450e20a6db8',
    'lift --trace e': '8def3ca2643582ad',
    'lift --trace --start 1,2 -2 -1': '5525fbbaad485876',
    'charts v:e': '825cc15146c9ce47',
    'charts e:1,-2:1:0.5': 'cdcd35ecba32f55b',
    'charts e:1:2:0.75': '830fc2ff61dca59e',
    'witness 2,1,-1': 'c233d833de46fa79',
    'zpath 100': '4efca0734124ee5b',
    'zpath 250': 'ea518b6cff8299f1',
    'charts e:1,2:3:0.25': 'e572c77d7757fd68',
    'q-point v:1,2,1,2': '9be3ad2a85cd9b1e',
    'zpath 100000': '9c346fb4d1c9c01a',
    'survives 1 2 1': '5cdc3a79e28f159c',
    'island 1 2 1': '39eaf7c7e5682905',
    'ev 1 2 1': '6b981f6f09934974',
    'in-k 1 2 1': '9cbd04151a2acca0',
    'survives 3 -1 2': 'd348e3f44314c0f1',
    'island 3 -1 2': 'fb02ade11a8efd69',
    'ev 3 -1 2': '118c7f8cc522bde8',
    'in-k 3 -1 2': '405c3c376b8ca0f9',
    'survives 1 2 1 2 3': '28e336798925dfc7',
    'island 1 2 1 2 3': '5048438765f52fa0',
    'ev 1 2 1 2 3': '118c7f8cc522bde8',
    'in-k 1 2 1 2 3': '680bb67ee3b03293',
    '--json witness 12': 'c2ff51f23e699775',
    '--json lift --trace 1 2 3': 'f6eb8bcbc0070931',
    '--json lift --start 1,2 -1,3': '629bae038632017e',
    '--json zpath 1': 'e00dad47edd17b16',
    '--json zpath 9': 'd4c337e72e11c7ec',
    '--json charts e:e:3:0.5': '47ddaa00523bd065',
    '--json charts v:1,2,1,2': '4558cbe0c6e5d0ed',
    '--json scan --max-weight 5': 'ad4fffbefa4336a9',
    '--json crosscheck 9 2': '000bb0dfb95351f1',
    '--json atlas-check --samples 100 --seed 5': '7c7fa0d7a3d86bac',
    '--json lift --trace 1,2,3,-3,2,1,4,5': '4e79036834932506',
    '--json lift --trace --start 1,2,3 -3 -2 4 1': '3041c14ae7978cf5',
    '--json lift --start 1,2,-1 2,3': '48cbfc0d3dcfd1be',
    '--json lift --trace --start 1,-2 2 2 1 -2 -1 -1 3 -1': '06e27fb791e76249',
    '--json lift --trace --start -1 1 1 2 -1 3 -3 -2 -1': '492b3b6288e57572',
    '--json lift --trace e': '2a559045c59ab58f',
    '--json lift --trace --start 1,2 -2 -1': '25d7cb6b392b7847',
    '--json charts v:e': '9726f61b2d0421f8',
    '--json charts e:1,-2:1:0.5': '564475cafe8091c0',
    '--json charts e:1:2:0.75': 'fbf3d58b91d037fc',
    '--json witness 2,1,-1': '913edfab10c4fcac',
    '--json zpath 100': '1ec293fe64281ea9',
    '--json zpath 250': '5a0c5640da5f24e8',
    '--json charts e:1,2:3:0.25': '1084136947a9f286',
    '--json q-point v:1,2,1,2': '34aef3754ec83122',
    '--json zpath 100000': '75cab041d59df9b7',
    '--json survives 1 2 1': 'ea3dc79dde50608e',
    '--json island 1 2 1': 'ae68c2d64bb768f5',
    '--json ev 1 2 1': 'b5a9405fbdb3c484',
    '--json in-k 1 2 1': '9f8d9dc084b35fb8',
    '--json survives 3 -1 2': 'a5f87adc241003eb',
    '--json island 3 -1 2': 'd94260df7f2908ef',
    '--json ev 3 -1 2': '0e41c31af5010f0c',
    '--json in-k 3 -1 2': '3cf7aa78710b6c3b',
    '--json survives 1 2 1 2 3': '5088acdf650f4f22',
    '--json island 1 2 1 2 3': '7a3e5dbaf66d2ee5',
    '--json ev 1 2 1 2 3': '67263dff1651fe0b',
    '--json in-k 1 2 1 2 3': 'dc0f30d3ff7d3570',
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def answer_digest(line: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(line.split())
    return _digest([code, out.getvalue(), err.getvalue()])


@pytest.mark.parametrize("line", list(PINS))
def test_cli_answer_is_pinned(line):
    assert answer_digest(line) == PINS[line]


# --- the oracles over the words near the islands ----------------------------

DOMAIN_SIZE = 25_636


def _ball(z, radius: int, kmax: int) -> set:
    """The reduced words within `radius` letters of z, over a_1 ... a_kmax
    and their inverses."""
    ball = {z}
    frontier = [z]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for i in range(1, kmax + 1):
                for x in (i, -i):
                    nb = w[:-1] if w and w[-1] == -x else w + (x,)
                    if nb not in ball:
                        ball.add(nb)
                        nxt.append(nb)
        frontier = nxt
    return ball


@functools.cache
def domain() -> list:
    """The oracle domain, sorted, built once per process."""
    words = set()
    for j in range(1, 41):
        data = island_data(j)
        for z in data.z_set:
            words |= _ball(z, 3 if j <= 20 else 2, data.level + 2)
    return sorted(words)


def _hit(hit):
    return None if hit is None else (hit.j, hit.kind, hit.s, hit.k, hit.r)


# oracle -> (answer on a word, True if it is asked of the survivors only)
ORACLES = {
    "classify": (lambda v: _hit(classify(v)), False),
    "survives": (survives, False),
    "island_of": (island_of, False),
    "e_set": (lambda v: sorted(e_set(v)), True),
    "Vertex.hit": (lambda v: _hit(Vertex.make(v).hit), True),
}


def oracle_digest(name: str) -> str:
    answer, survivors_only = ORACLES[name]
    return _digest([answer(v) for v in domain() if not survivors_only or survives(v)])


DOMAIN_PIN = "3d018f9e4b750f7f"
ORACLE_PINS = {
    "classify": "6210f7d475d955fd",
    "survives": "d5a35c10d0ac813d",
    "island_of": "ba9db629c60b945d",
    "e_set": "5f14f33aff4c3518",
    "Vertex.hit": "d483252ffd80a5e3",
}


def test_oracle_domain_is_pinned():
    assert len(domain()) == DOMAIN_SIZE
    assert _digest(domain()) == DOMAIN_PIN


@pytest.mark.parametrize("name", list(ORACLES))
def test_oracle_answer_is_pinned(name):
    assert oracle_digest(name) == ORACLE_PINS[name]
