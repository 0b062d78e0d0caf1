"""Tree growth on a pool of forked worker processes.

``growth_pool`` starts workers that run ``tree.grow_all`` on the rows of
a fixed list of training sets.  The workers are forked once those sets
exist, so each holds them from the start: a task ships only its
growths (fit rows, tree seeds and parameters; each tree's bootstrap
sample is drawn in the worker), and ships back their ``TreeArrays``.
Growth is deterministic, so a tree grown in a worker equals the tree
grown in process.

The pool forks rather than spawns: a spawned worker would import numpy
anew, about 0.1 s each.  A fork copies only the forking thread, so it
must not happen while another thread holds a lock; ``ProcessPoolExecutor``
forks every worker at the first submit, before it starts its own
threads, and the training stage runs no other Python thread (OpenBLAS
stops its own threads before a fork).

``multiprocessing`` and ``concurrent.futures`` are imported only when a
pool starts, which keeps them out of ``import cadaug``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tree

__all__ = ["can_fork", "default_jobs", "growth_pool"]

# workers beyond this many have not been measured: on a 2-vCPU host two
# workers cut the criterion-7 run by a third, and each held about 60 MB
MAX_JOBS = 2

# the (X, y) of every training set, in a worker process
_TRAINING: Sequence[tuple[np.ndarray, np.ndarray]] = ()


def default_jobs() -> int:
    """The CPUs this process may run on, at most ``MAX_JOBS``."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        usable = os.cpu_count() or 1
    return min(usable, MAX_JOBS)


def can_fork() -> bool:
    """Whether this platform offers the ``fork`` start method.  Workers
    started by ``spawn`` or ``forkserver`` would import numpy anew."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _install(training: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    global _TRAINING
    _TRAINING = training


def _grow(index: int, growths: list[tree.Growth]) -> list[tree.TreeArrays]:
    X, y = _TRAINING[index]
    return tree.grow_all(X, y, growths)


@contextmanager
def _worker_lost() -> Iterator[None]:
    """Report a pool broken by a worker that ended abruptly (killed, say,
    for want of memory) as a ``ChildProcessError``, an ``OSError``."""
    from concurrent.futures import BrokenExecutor

    try:
        yield
    except BrokenExecutor as err:
        raise ChildProcessError(f"a tree-growing worker process ended abruptly: {err}") from err


def _result(future) -> list[tree.TreeArrays]:
    with _worker_lost():
        return future.result()


def _submit(pool, index: int, growths: list[tree.Growth]) -> Callable[[], list[tree.TreeArrays]]:
    with _worker_lost():
        return partial(_result, pool.submit(_grow, index, growths))


@contextmanager
def growth_pool(
    jobs: int, training: Sequence[tuple[np.ndarray, np.ndarray]]
) -> Iterator[list[Callable[..., Callable[[], list[tree.TreeArrays]]]]]:
    """A pool of ``jobs`` forked workers for the training sets
    ``training``, as one ``submit`` per set for ``SharedGrowth.start``.

    The workers fork at the first submit, which raises the ``OSError`` of
    a fork that fails.  On exit, work not yet started is cancelled and
    the pool is shut down, waiting for every worker to end; a worker
    forked before another's fork failed, which the pool never started,
    is terminated.  None outlives the block, and their CPU time counts
    among this process's reaped children.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    before = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(
        jobs, multiprocessing.get_context("fork"), initializer=_install, initargs=(training,)
    )
    try:
        yield [partial(_submit, pool, index) for index in range(len(training))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for child in set(multiprocessing.active_children()) - before:
            child.terminate()
            child.join()
