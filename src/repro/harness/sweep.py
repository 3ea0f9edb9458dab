"""Parameter sweeps over workloads and machine configurations.

Used by the issue-width (Fig. 15), tag-count (Figs. 9/16), and
width-x-tags (Fig. 17) experiments.

Every helper routes through :func:`repro.harness.pool.run_batch`, so
sweeps accept ``jobs`` (worker-pool fan-out), ``cache`` (a
:class:`~repro.harness.cache.ResultCache`), and ``options`` (a
:class:`~repro.harness.pool.RunOptions`: per-run wall-clock timeout,
crash-retry budget, JSON-lines run log and live progress line) and
report failures with the failing workload/machine/config attached to
the exception message. Results are ordered identically for any
``jobs`` value, and each finished run is cached the moment it lands,
so an interrupted sweep resumes from partial progress.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import DeadlockError
from repro.harness.cache import ResultCache
from repro.harness.pool import RunOptions, run_batch
from repro.sim.metrics import ExecutionResult
from repro.workloads.registry import WorkloadInstance


def run_machines(workload: WorkloadInstance,
                 machines: Sequence[str],
                 check: bool = True,
                 jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 options: Optional[RunOptions] = None,
                 **kwargs) -> Dict[str, ExecutionResult]:
    """Run a workload on several machines (verified against the oracle
    unless ``check=False``)."""
    results = run_batch([(workload, m, kwargs, check) for m in machines],
                        jobs=jobs, cache=cache, options=options)
    return dict(zip(machines, results))


def sweep_tags(workload: WorkloadInstance,
               tag_counts: Sequence[int],
               machine: str = "tyr",
               jobs: int = 1,
               cache: Optional[ResultCache] = None,
               options: Optional[RunOptions] = None,
               **kwargs) -> Dict[int, ExecutionResult]:
    """TYR across local-tag-space sizes (paper Figs. 9/16)."""
    results = run_batch(
        [(workload, machine, dict(kwargs, tags=tags))
         for tags in tag_counts],
        jobs=jobs, cache=cache, options=options,
    )
    return dict(zip(tag_counts, results))


def sweep_issue_width(workload: WorkloadInstance,
                      widths: Sequence[int],
                      machines: Sequence[str],
                      jobs: int = 1,
                      cache: Optional[ResultCache] = None,
                      options: Optional[RunOptions] = None,
                      **kwargs) -> Dict[str, Dict[int, ExecutionResult]]:
    """Machines across issue widths (paper Fig. 15)."""
    results = iter(run_batch(
        [(workload, machine, dict(kwargs, issue_width=width))
         for machine in machines for width in widths],
        jobs=jobs, cache=cache, options=options,
    ))
    return {machine: {width: next(results) for width in widths}
            for machine in machines}


def sweep_width_x_tags(workload: WorkloadInstance,
                       widths: Sequence[int],
                       tag_counts: Sequence[int],
                       jobs: int = 1,
                       cache: Optional[ResultCache] = None,
                       options: Optional[RunOptions] = None,
                       **kwargs
                       ) -> Dict[Tuple[int, int], ExecutionResult]:
    """TYR over the (issue width, tags) grid (paper Fig. 17)."""
    results = iter(run_batch(
        [(workload, "tyr", dict(kwargs, issue_width=width, tags=tags))
         for width in widths for tags in tag_counts],
        jobs=jobs, cache=cache, options=options,
    ))
    return {(width, tags): next(results)
            for width in widths for tags in tag_counts}


def min_global_tags_to_complete(workload: WorkloadInstance,
                                candidates: Sequence[int],
                                jobs: int = 1,
                                cache: Optional[ResultCache] = None,
                                options: Optional[RunOptions] = None,
                                ) -> Dict[int, bool]:
    """Which bounded *global* tag-pool sizes complete vs deadlock
    (paper Fig. 11's 'grows quickly with input size')."""
    results = run_batch(
        [(workload, "unordered-bounded", {"total_tags": total}, False)
         for total in candidates],
        jobs=jobs, cache=cache, tolerate=(DeadlockError,),
        options=options,
    )
    return {total: isinstance(res, ExecutionResult) and res.completed
            for total, res in zip(candidates, results)}
