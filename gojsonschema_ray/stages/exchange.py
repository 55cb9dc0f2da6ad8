"""The engine's coarse hash exchange — the one place that sizes, tags and
runs it.

Combiner-first operators collapse each batch to small (key, partial) rows,
then run ONE :func:`exchange` keyed on one or more of their columns: each
partials block is tagged ``part = hash(key) % P`` (:func:`hash_part`), then
``repartition(P)`` → ``materialize`` → ``groupby("part").map_groups(reduce)``,
and ``reduce`` sees each partition without the tag. Results never depend
on P — reducers group on the key inside whatever partition arrives — so P
is purely a performance choice, made by one of two width policies:

- :func:`exchange_parts` — one partition per cluster CPU, no floor. Used by
  the key-count exchange (``uniqueness.KeyCountStage`` /
  ``aggregate_key_counts``), which the n-gram / line-hash counts of
  ``functions.text`` also run through.
- :func:`shuffle_width` — the same CPU count floored at 8. Used by every
  other exchange.

Measured on a 4-CPU host: over the 60k partial rows of a uniqueness check
the reducers are trivial and the cost is per-task overhead — the exchange
took 1.19 s at P=32 and 0.32 s at P=4. Callers with high-cardinality keys
(n-gram and hash counts) give each reducer more rows as P shrinks: 1.92M
distinct bigrams ran faster at P=4 than at P=8, but the largest worker's
peak RSS rose by about a third. Merging the two policies has not been
measured.

Small state that every task reads whole — a sorted hash set, a Bloom
filter, a reference table, the flagship's compiled stages — ships by
:func:`broadcast` instead: ONE ``ray.put`` on the driver, and a
:class:`Broadcast` handle captured by the stage or closure. ``.get()``
fetches the value at most once per deserialized handle, i.e. once per
task (or per actor) that unpickles the stage, however many batches it
then sees. The handle never pickles its cached value, so a handle already
read on the driver still ships as a bare ref. There is deliberately no
module-level cache keyed by ref: one would pin every broadcast object in
long-lived workers for the life of the process.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def exchange_parts() -> int:
    """One exchange partition per cluster CPU; 8 when Ray is not running
    (the partial is then built outside any cluster, e.g. in a unit test
    or a single-process replay)."""
    import ray

    if not ray.is_initialized():
        return 8
    return max(1, int(ray.cluster_resources().get("CPU", 8)))


def shuffle_width() -> int:
    """Width of every exchange outside the key-count path: about one block
    per CPU (a groupby over hundreds of micro-blocks is ~10x slower),
    floored at 8."""
    return max(8, exchange_parts())


def hash_part(values, P: int) -> pa.Array:
    """int32 partition tag ``hash_arrow_array(values) % P`` of one column
    (an Arrow array or pandas Series) or of several (an Arrow table or
    pandas DataFrame; equal rows get equal tags). Nulls hash like any
    other value."""
    from .sketches import hash_arrow_array

    return pa.array((hash_arrow_array(values) % np.uint64(P))
                    .astype(np.int32))


def exchange(partials, reduce, key, *, P: int | None = None,
             batch_format: str = "pandas"):
    """Run ``reduce`` once per partition of the ``partials`` Dataset (or
    the union of a list of them, e.g. the two sides of a join) hashed on
    ``key`` (one column name or a list of them) into ``P`` partitions
    (default :func:`shuffle_width`); rows with equal keys share one call.

    Each partials block is tagged ``part`` in its own format (a pandas
    block stays pandas, so no conversion changes its dtypes; a `part`
    column already there is replaced), inside the map that built it — a
    list is tagged side by side before the union, since a map after a
    union runs as tasks of its own. ``reduce`` gets each partition with
    the tag removed. The partials are consolidated into P blocks and
    materialized BEFORE the groupby: Ray's sort-based groupby cost is
    driven by input block COUNT (hundreds of micro-blocks -> ~10x slower
    than ~#CPUs consolidated blocks) and it re-executes a lazy upstream
    while sampling sort boundaries (~8x cost). Repartition itself samples
    nothing, so one materialize after it is enough; blocks spill if
    needed."""
    import pandas as pd

    P = shuffle_width() if P is None else P
    keys = [key] if isinstance(key, str) else list(key)

    def tag(block):
        if len(keys) == 1:
            values = block[keys[0]]
        elif isinstance(block, pd.DataFrame):
            values = block[keys]
        else:
            values = block.select(keys)
        part = hash_part(values, P)
        if isinstance(block, pd.DataFrame):
            block = block.copy(deep=False)  # a new column, no data copied
            block["part"] = part.to_numpy()
            return block
        i = block.schema.get_field_index("part")
        return block.append_column("part", part) if i < 0 \
            else block.set_column(i, "part", part)

    def untagged(batch):
        if isinstance(batch, pd.DataFrame):
            del batch["part"]
        else:
            batch = batch.drop_columns(["part"])
        return reduce(batch)

    first, *rest = [ds.map_batches(tag, batch_format=None, batch_size=None)
                     for ds in (partials if isinstance(partials, list)
                                else [partials])]
    return (first.union(*rest) if rest else first) \
        .repartition(P).materialize().groupby("part") \
        .map_groups(untagged, batch_format=batch_format)


_UNSET = object()


class Broadcast:
    """Picklable handle of one :func:`broadcast` value: ``.get()`` fetches
    it from the object store on first use and caches it on this copy of
    the handle only."""

    __slots__ = ("ref", "_value")

    def __init__(self, ref):
        self.ref = ref
        self._value = _UNSET

    def get(self):
        if self._value is _UNSET:
            import ray

            self._value = ray.get(self.ref)
        return self._value

    def __reduce__(self):
        # ship the ref only: a value cached on the driver never rides
        # along inside every task's pickled stage
        return Broadcast, (self.ref,)


def broadcast(value) -> Broadcast:
    """Put ``value`` in the object store ONCE and return its handle — the
    engine's only ``ray.put``."""
    import ray

    return Broadcast(ray.put(value))
