"""Sizing of the engine's coarse hash exchange.

Combiner-first operators collapse each batch to small (key, partial) rows
tagged with ``part = hash(key) % P``, then run ONE ``repartition(P)`` →
``groupby("part").map_groups`` exchange. P is one partition per cluster
CPU, read here once for every key-count exchange.

Measured on a 4-CPU host: over the 60k partial rows of a uniqueness check
the reducers are trivial and the cost is per-task overhead — the exchange
took 1.19 s at P=32 and 0.32 s at P=4. Callers with high-cardinality keys
(n-gram and hash counts) give each reducer more rows as P shrinks: 1.92M
distinct bigrams ran faster at P=4 than at P=8, but the largest worker's
peak RSS rose by about a third.

Results never depend on P — reducers group on the key inside whatever
`part` values arrive — so P is purely a performance choice.
"""

from __future__ import annotations


def exchange_parts() -> int:
    """One exchange partition per cluster CPU; 8 when Ray is not running
    (the partial is then built outside any cluster, e.g. in a unit test
    or a single-process replay)."""
    import ray

    if not ray.is_initialized():
        return 8
    return max(1, int(ray.cluster_resources().get("CPU", 8)))
