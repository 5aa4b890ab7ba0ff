"""Seeded random generators for presentations, instances and traces.

Presentations are grown event by event, keeping a candidate only when the
whole log still validates, so every generated presentation is valid by
construction (and the generators never need to retry from scratch).
"""

from fractions import Fraction

import limitlab as ll

EIGHTHS = [Fraction(n, 8) for n in range(9)]


def rand_bits(rng, lo, hi):
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def rand_spec(rng, top=4):
    n = rng.randint(0, top)
    return ll.single(n) if rng.random() < 0.5 else ll.tail(n)


def gen_set_family(rng, max_breakpoints=6):
    k = rng.randint(1, 4)
    universe = []
    for _ in range(rng.randint(0, 20)):
        u = rand_bits(rng, 1, 6)
        if u not in universe:
            universe.append(u)
    events = []
    stage = 0
    for _ in range(rng.randint(0, 12)):
        if not universe:
            break
        trial = events + [ll.SetEvent(stage, rand_spec(rng), rng.choice(universe))]
        candidate = ll.SetFamilyPresentation(k=k, universe=tuple(universe), events=tuple(trial))
        if ll.validate(candidate).ok and len(ll.breakpoints(candidate)) <= max_breakpoints:
            events = trial
            stage += rng.randint(0, 1)
    return ll.SetFamilyPresentation(k=k, universe=tuple(universe), events=tuple(events))


def gen_semimeasure_family(rng, tree=None):
    if tree is None:
        tree = rng.random() < 0.5
    pool = []
    for _ in range(rng.randint(1, 10)):
        u = rand_bits(rng, 0, 5)
        if u not in pool:
            pool.append(u)
    events = []
    stage = 0
    for _ in range(rng.randint(0, 10)):
        trial = events + [
            ll.ValueEvent(stage, rand_spec(rng), rng.choice(pool), rng.choice(EIGHTHS))
        ]
        candidate = ll.SemimeasureFamilyPresentation(events=tuple(trial), tree=tree)
        if ll.validate(candidate).ok:
            events = trial
            stage += rng.randint(0, 1)
    return ll.SemimeasureFamilyPresentation(events=tuple(events), tree=tree)


def gen_open_family(rng, with_granularity=False, max_depth=6, epsilon=None):
    if epsilon is None:
        epsilon = Fraction(rng.randint(1, 8), 8)
    events = []
    stage = 0
    for _ in range(rng.randint(0, 8)):
        trial = events + [ll.IntervalEvent(stage, rand_spec(rng), rand_bits(rng, 1, max_depth))]
        candidate = ll.OpenFamilyPresentation(epsilon=epsilon, events=tuple(trial))
        if ll.validate(candidate).ok:
            events = trial
            stage += rng.randint(0, 1)
    granularity = None
    if with_granularity:
        top = max(ll.breakpoints(ll.OpenFamilyPresentation(epsilon=epsilon, events=tuple(events))))
        granularity = []
        for n in range(top + 1):
            deepest = max(
                (len(ev.interval) for ev in events if ev.spec.covers(n)), default=0
            )
            granularity.append((n, max(deepest, rng.randint(0, max_depth))))
        granularity = tuple(granularity)
    return ll.OpenFamilyPresentation(
        epsilon=epsilon, events=tuple(events), granularity=granularity
    )


def gen_clopen(rng, max_intervals=3, max_depth=6):
    return ll.normalize([rand_bits(rng, 1, max_depth) for _ in range(rng.randint(0, max_intervals))])


def gen_forcing_instance(rng, max_queries=8):
    initial = gen_clopen(rng)
    while initial.is_full():
        initial = gen_clopen(rng)
    queries = tuple(
        (f"q{i}", gen_clopen(rng)) for i in range(rng.randint(0, max_queries))
    )
    return ll.ForcingInstance(initial_u=initial, queries=queries)


def gen_trace(rng):
    values = [None, 0, 1, 2, 3]
    prefix = tuple(rng.choice(values) for _ in range(rng.randint(0, 4)))
    period = tuple(rng.choice(values) for _ in range(rng.randint(1, 4)))
    return ll.PartialTrace(prefix=prefix, period=period)
