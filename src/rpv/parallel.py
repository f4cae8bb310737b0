"""The engine's one process-pool fan-out."""

from __future__ import annotations


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(*args) for args in items], in order, over up to `jobs` processes.

    With jobs <= 1 or fewer than two items no pool is created.  Otherwise
    `fn` must be a module-level function and every argument picklable:
    workers are spawned, so each starts from a fresh import and sees only
    what it is passed (and the environment).
    """
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(*args) for args in items]
    # imported here so that a serial run never pays for multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)), mp_context=ctx) as pool:
        return list(pool.map(fn, *zip(*items)))
