"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

Every workload calls the public API of ``doubleeis`` from one process and
one thread, one call at a time (a closed loop with one client).  Each timed
call is one "query", the unit a client waits for: one normal form in
``queries``, the whole cold table in ``tables`` and the whole command list
in ``catalog``.  Single builds and commands are too short and too unlike
each other for a steady percentile on this kind of shared machine; the
traced run times them one by one.  Functions are looked up on their
modules at call time, so the wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from doubleeis import cli, elements, maps, spaces

E_DIMENSIONS = (1, 2, 5, 8, 15, 22, 35, 48, 69, 90, 121, 152, 195)
TABLE_WEIGHTS = {"E": range(1, 14), "Z": range(1, 21)}
CACHED_WEIGHTS = {"E": range(1, 13), "Z": range(1, 21)}
QUERY_WEIGHTS = range(2, 13)
RANDOM_GROUPS = 300  # four normal forms each: x, y, x + c*y, nf(x)
Q_ORDERS = (10, 30, 50)
CATALOG_WEIGHTS = range(2, 13)
VERIFY_FAMILIES = ("sum-formula", "parity", "relprodandg", "mfprod", "ramanujan", "diagram")
DEFAULT_SEED = 0

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Checks:
    """Output checks of one process; a run that attempts none has failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok

    def passed(self) -> bool:
        return self.attempted > 0 and not self.failed


class Stream:
    """Times each call; the latencies are the per-query samples."""

    def __init__(self):
        self.latencies: list[float] = []
        self.start = self.end = None

    def call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        self.latencies.append(t1 - t0)
        if self.start is None:
            self.start = t0
        self.end = t1
        return result

    @property
    def seconds(self) -> float:
        return 0.0 if self.start is None else self.end - self.start


# -- relation systems --------------------------------------------------------

def expected_dimension(space: str, weight: int) -> int:
    return E_DIMENSIONS[weight - 1] if space == "E" else (weight + 1) // 2


def system_digest(system) -> str:
    """Digest of the ordered basis and the reduced rows, in canonical JSON."""
    rows = [[c, [[j, str(v)] for j, v in sorted(row.items())]] for c, row in system.rref_rows]
    data = json.dumps([[str(g) for g in system.basis], rows], separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def check_systems(checks: Checks, systems: dict, expected: dict, digests: bool = True):
    for (space, weight), system in systems.items():
        key = f"{space}{weight}"
        checks.check(f"dimension {key}", system.dimension == expected_dimension(space, weight))
        if digests:
            checks.check(f"reduced rows {key}", system_digest(system) == expected["systems"].get(key))


def _weights(table: dict) -> list[tuple[str, int]]:
    return [(space, w) for space, ws in table.items() for w in ws]


def build_cache(cache_dir: str, checks: Checks, expected: dict) -> dict:
    """Set-up of ``queries`` and ``catalog``: build and write the cache."""
    systems = {key: spaces.relation_system(*key, cache_dir=cache_dir)
               for key in _weights(CACHED_WEIGHTS)}
    check_systems(checks, systems, expected)
    return {}


# -- tables: cold builds that write the disk cache ---------------------------

def tables_inputs(seed: int) -> list[tuple[str, int]]:
    order = _weights(TABLE_WEIGHTS)
    random.Random(seed).shuffle(order)
    return order


def _build_all(order, cache_dir) -> dict:
    return {key: spaces.relation_system(*key, cache_dir=cache_dir) for key in order}


def tables_job(order, cache_dir, checks, stream, expected) -> dict:
    systems = stream.call(_build_all, order, cache_dir)
    check_systems(checks, systems, expected)
    written = spaces.cache_status(cache_dir)["files"]
    checks.check("cache files written", len(written) == len(order))
    return {}


# -- queries: normal forms and map images against a cache read from disk ------

def _random_element(rng: random.Random, space: str, weight: int):
    gens = spaces.enumerate_generators(space, weight)
    terms = []
    for gen in rng.sample(gens, min(len(gens), rng.randint(1, 6))):
        num = rng.choice([n for n in range(-9, 10) if n])
        terms.append((gen, Fraction(num, rng.randint(1, 6))))
    return elements.FormalElement(terms)


def queries_inputs(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    items = []
    for _ in range(RANDOM_GROUPS):
        space = rng.choice("EEEZ")
        weight = rng.choice(QUERY_WEIGHTS)
        x = _random_element(rng, space, weight)
        y = _random_element(rng, space, weight)
        items.append(("linear", (x, y, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))))
    for w in QUERY_WEIGHTS:
        items += [("map_pi", row) for row in spaces.eisenstein_relations(w)]
        if w + 2 in QUERY_WEIGHTS:
            items += [("map_partial", row) for row in spaces.eisenstein_relations(w)]
        items += [("map_sigma", row) for row in spaces.zeta_relations(w)]
        if w >= 3:
            items += [("pi_sigma", elements.FormalElement.single(g))
                      for g in spaces.enumerate_generators("Z", w)]
    rng.shuffle(items)
    return items


def _image_normal_form(which: str, row):
    return spaces.normal_form(getattr(maps, which)(row))


def _pi_sigma_defect(e):
    return spaces.normal_form(maps.map_pi(maps.map_sigma(e)) - e)


def queries_job(items, cache_dir, checks, stream, expected) -> dict:
    systems = {key: spaces.relation_system(*key, cache_dir=cache_dir)
               for key in _weights(CACHED_WEIGHTS)}
    check_systems(checks, systems, expected, digests=False)
    for kind, data in items:
        try:
            _query(kind, data, checks, stream)
        except Exception as exc:  # a query that raises fails; the stream goes on
            checks.check(f"{kind} raised {exc!r}", False)
    return {}


def _query(kind, data, checks, stream):
    nf = spaces.normal_form
    if kind == "linear":
        x, y, c = data
        nx = stream.call(nf, x)
        ny = stream.call(nf, y)
        nxy = stream.call(nf, x + y * c)
        nnx = stream.call(nf, nx)
        checks.check("normal form is idempotent", nnx == nx)
        checks.check("normal form is linear", nxy == nx + ny * c)
    elif kind == "pi_sigma":
        checks.check("pi o sigma = id", not stream.call(_pi_sigma_defect, data))
    else:
        checks.check(f"{kind} kills relation rows", not stream.call(_image_normal_form, kind, data))


# -- catalog: CLI commands run in-process -------------------------------------

def catalog_inputs(seed: int) -> list[list[str]]:
    """Per q-order: a weight-12 closed-form realization first (it builds the
    context), then one realize and one recognize per weight, shuffled; then
    the six verify families at q-order 50 and one Fay check."""
    rng = random.Random(seed)
    commands = []
    for q in Q_ORDERS:
        block = []
        for w in CATALOG_WEIGHTS:
            gens = spaces.enumerate_generators("E", w)
            if w % 2 == 0:
                k1 = rng.randint(1, w - 1)
                realize = ["realize", "--gen", f"G({k1},{w - k1};0,0)", "--check-closed-form"]
            else:
                realize = ["realize", "--gen", str(rng.choice(gens))]
            block.append(realize + ["--q-order", str(q)])
            block.append(["recognize", "--gen", str(rng.choice(gens)), "--q-order", str(q)])
        first = block.pop(2 * (len(CATALOG_WEIGHTS) - 1))
        rng.shuffle(block)
        commands += [first] + block
    commands += [["verify", "--identity", f, "--q-order", "50"] for f in VERIFY_FAMILIES]
    commands.append(["fay-check", "--degree", "8", "--q-order", "20"])
    return commands


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Exit code and standard output of one command; None if it raised."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a traceback is a failed command, not a crashed run
            print(repr(exc))
            code = None
    return code, out.getvalue()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_command(checks: Checks, argv: list[str], code: int | None, out: str, expected: dict):
    key = " ".join(argv)
    checks.check(f"exit 0: {key}", code == 0)
    pinned = expected["catalog_stdout"].get(key)
    if pinned is not None:
        checks.check(f"stdout digest: {key}", stdout_digest(out) == pinned)
    lines = out.splitlines() or [""]
    command = argv[0]
    if command == "realize":
        checks.check(f"realized: {key}", lines[0].startswith(f"{argv[2]} -> "))
        if "--check-closed-form" in argv:
            checks.check(f"closed form matches: {key}", lines[-1] == "matches: True")
    elif command == "recognize":
        checks.check(f"recognized: {key}", lines[0].startswith(f"{argv[2]} = "))
    elif command == "verify":
        instances = lines if argv[2] == "diagram" else lines[:-1]
        ok = bool(instances) and all(line.endswith(": ok") for line in instances)
        if argv[2] != "diagram":
            ok &= lines[-1] == f"{len(instances)} instances, all verified"
        checks.check(f"verified: {key}", ok)
    elif command == "fay-check":
        checks.check(f"Fay identity: {key}", lines[0].endswith(": verified"))


def catalog_job(commands, cache_dir, checks, stream, expected) -> dict:
    outputs = stream.call(lambda: [run_cli(argv) for argv in commands])
    for argv, (code, out) in zip(commands, outputs):
        check_command(checks, argv, code, out, expected)
    return {"cli.stdout_bytes": sum(len(out.encode()) for _, out in outputs)}


class Workload:
    def __init__(self, inputs, job, setup=None, setups=2):
        self.inputs = inputs
        self.job = job
        self.setup = setup  # None: set-up is the import and the inputs
        self.setups = setups

    @property
    def shares_cache(self) -> bool:
        """Jobs read the cache the set-up built; otherwise each job starts empty."""
        return self.setup is not None


WORKLOADS = {
    # set-up is cheap here, so more set-ups give a steadier median
    "tables": Workload(tables_inputs, tables_job, setups=5),
    "queries": Workload(queries_inputs, queries_job, build_cache),
    "catalog": Workload(catalog_inputs, catalog_job, build_cache),
}
