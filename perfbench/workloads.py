"""Seeded operation lists of the three benchmark workloads.

Every list is a pure function of the workload seed (and, for the client
streams, of the thread index): the same seed gives the same operations,
so answers and quality figures repeat exactly, and a different seed
gives different ones.  The program only ever sees the generated inputs.

* ``paper-tables`` — one pass is the 30 jobs behind ``repro-gpp
  table1|2|3``: Table I (13 suite circuits at K=5), Table II (KSA4 at
  K=5..10) and Table III plans at 100 mA.  Pass ``i`` uses seed
  ``seed + i``.
* ``service-mix`` — per client thread, a stream of K=5 partition
  request bodies, built from blocks of 17: every circuit twice with a
  fresh seed (a solve that writes the result store), and five exact
  repeats of earlier fresh requests of the same thread (reads the store
  answers, because the thread is a closed loop and the earlier request
  has completed).  One in four fresh MULT8/C3540 requests asks for the
  multilevel engine.  See NOTES.md for why reads are 5/17 and not half.
* ``fleet-lease`` — per client thread, a stream of fresh K=5 partitions
  of small circuits; no request repeats, so none is answered by the
  store.

Fresh seeds are unique across all threads of one workload: the low
bits of each seed carry the thread index.
"""

import random

from repro.circuits.suite import SUITE_NAMES
from repro.harness.runner import SuiteJob

#: Table III plans left out of ``paper-tables`` for run time only (see
#: NOTES.md for their measured cost).
PLAN_EXCLUDED = ("ID8", "C3540")
TABLE2_K_VALUES = tuple(range(5, 11))
BIAS_LIMIT_MA = 100.0
PLANES = 5

SERVICE_CIRCUITS = ("KSA8", "KSA16", "C432", "C1908", "MULT8", "C3540")
#: A service-mix block holds this many fresh requests per circuit ...
SERVICE_FRESH_PER_CIRCUIT = 2
#: ... and this many store reads: 5 of 17 requests.
SERVICE_REPEATS_PER_BLOCK = 5
MULTILEVEL_CIRCUITS = ("MULT8", "C3540")
#: One in MULTILEVEL_EVERY fresh requests of a MULTILEVEL_CIRCUITS
#: circuit asks for the multilevel engine.
MULTILEVEL_EVERY = 4
FLEET_CIRCUITS = ("KSA8", "KSA16", "C432")

#: Seed of the set-up requests; stream seeds are never 0.
WARMUP_SEED = 0
_MAX_THREADS = 64


def paper_tables_jobs(seed):
    """The 30 jobs of one ``paper-tables`` pass, all with ``seed``."""
    table1 = [
        SuiteJob(kind="partition", circuit=name, num_planes=PLANES, seed=seed)
        for name in SUITE_NAMES
    ]
    table2 = [
        SuiteJob(kind="partition", circuit="KSA4", num_planes=k, seed=seed)
        for k in TABLE2_K_VALUES
    ]
    table3 = [
        SuiteJob(kind="plan", circuit=name, bias_limit_ma=BIAS_LIMIT_MA, seed=seed)
        for name in SUITE_NAMES if name not in PLAN_EXCLUDED
    ]
    return table1 + table2 + table3


class _SeedSource:
    """Distinct fresh seeds for one client thread."""

    def __init__(self, rng, thread):
        if not 0 <= thread < _MAX_THREADS:
            raise ValueError(f"thread index must be in [0, {_MAX_THREADS}), got {thread}")
        self.rng = rng
        self.thread = thread
        self.used = set()

    def draw(self):
        while True:
            value = self.rng.randrange(1, 1 << 24)
            if value not in self.used:
                self.used.add(value)
                return value * _MAX_THREADS + self.thread


def _request(circuit, seed, engine="batched"):
    body = {"circuit": circuit, "num_planes": PLANES, "seed": seed}
    if engine != "batched":
        body["engine"] = engine
    return body


def service_mix_stream(seed, thread, length):
    """The first ``length`` request bodies of one service-mix client."""
    rng = random.Random(f"service-mix/{seed}/{thread}")
    seeds = _SeedSource(rng, thread)
    fresh_count = {circuit: 0 for circuit in SERVICE_CIRCUITS}
    multilevel_slot = {}
    sent = []
    ops = []
    while len(ops) < length:
        block = [c for c in SERVICE_CIRCUITS for _ in range(SERVICE_FRESH_PER_CIRCUIT)]
        rng.shuffle(block)
        # Repeats never open a block, so one always has an earlier
        # fresh request of this client to repeat.
        for _ in range(SERVICE_REPEATS_PER_BLOCK):
            block.insert(rng.randrange(1, len(block) + 1), None)
        for circuit in block:
            if circuit is None:
                ops.append(dict(rng.choice(sent)))
                continue
            engine = "batched"
            if circuit in MULTILEVEL_CIRCUITS:
                count = fresh_count[circuit]
                if count % MULTILEVEL_EVERY == 0:
                    multilevel_slot[circuit] = count + rng.randrange(MULTILEVEL_EVERY)
                if count == multilevel_slot[circuit]:
                    engine = "multilevel"
            fresh_count[circuit] += 1
            body = _request(circuit, seeds.draw(), engine)
            sent.append(body)
            ops.append(dict(body))
    return ops[:length]


def fleet_lease_stream(seed, thread, length):
    """The first ``length`` request bodies of one fleet-lease client."""
    rng = random.Random(f"fleet-lease/{seed}/{thread}")
    seeds = _SeedSource(rng, thread)
    ops = []
    while len(ops) < length:
        block = list(FLEET_CIRCUITS)
        rng.shuffle(block)
        ops.extend(_request(circuit, seeds.draw()) for circuit in block)
    return ops[:length]


def warmup_requests(workload):
    """One set-up request per (circuit, engine) the workload sends."""
    if workload == "service-mix":
        bodies = [_request(circuit, WARMUP_SEED) for circuit in SERVICE_CIRCUITS]
        bodies += [_request(circuit, WARMUP_SEED, "multilevel")
                   for circuit in MULTILEVEL_CIRCUITS]
        return bodies
    if workload == "fleet-lease":
        return [_request(circuit, WARMUP_SEED) for circuit in FLEET_CIRCUITS]
    raise ValueError(f"no client streams in workload {workload!r}")


STREAMS = {"service-mix": service_mix_stream, "fleet-lease": fleet_lease_stream}
