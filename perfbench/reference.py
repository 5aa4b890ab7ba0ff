"""A fixed piece of pure-Python work, run as a child process between jobs.

It uses what the program spends its time on (Fractions, dicts, tuples,
sorting, JSON) and imports nothing of the program, so its cost never changes
from one commit to the next; only the machine's speed moves it.
"""

import json
from fractions import Fraction

total, counts, rows = Fraction(0), {}, []
for i in range(6000):
    key = (i * 7919) % 1021
    counts[key] = counts.get(key, 0) + 1
    total += Fraction(1, 1 + key % 64)
    rows.append((key % 97, str(key), [i]))
rows.sort()
json.dumps([row[:2] for row in rows])
