"""Ordered fan-out over worker processes, with per-item seeds that keep it jobs-invariant."""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator


def session_seed(base_seed: int, stream: str, index: int) -> str:
    """Seed of item `index` in `stream`; random.Random hashes it with SHA-512."""
    return f"{stream}:{base_seed}:{index}"


def _map_chunk(args) -> list:
    fn, shared, chunk = args
    return [fn(shared, item) for item in chunk]


def parallel_map(fn: Callable, shared, items: Iterable, jobs: int = 1) -> Iterator:
    """Yield fn(shared, item) per item in order: one at a time in-process at jobs <= 1, else from
    a list of them, one contiguous chunk per worker process, at most one per CPU (fn module-level)."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items := list(items)) <= 1:
        for item in items:
            yield fn(shared, item)
        return
    # Imported here so that stages which never start a pool skip its import cost.
    from concurrent.futures import ProcessPoolExecutor

    step = (len(items) + jobs - 1) // jobs
    chunks = [(fn, shared, items[lo:lo + step]) for lo in range(0, len(items), step)]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        for results in pool.map(_map_chunk, chunks):
            yield from results
