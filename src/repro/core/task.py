"""Task and task-set model.

The paper characterises a task set (or a message-stream set) by its
worst-case execution time ``C``, relative deadline ``D`` and period ``T``
(minimum inter-arrival time for sporadic tasks).  We additionally carry
release jitter ``J`` (needed for the §4 message analyses), a blocking
term ``B`` (eq. (2)) and an optional fixed priority.

Tasks are immutable; a :class:`TaskSet` is an ordered, validated
collection with convenience accessors used by every analysis module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .timeops import Number, hyperperiod


@dataclass(frozen=True)
class Task:
    """A periodic or sporadic task / message stream.

    Parameters
    ----------
    C:
        Worst-case execution time (or message-cycle transmission time).
    T:
        Period (minimum inter-arrival time for sporadic tasks).
    D:
        Relative deadline; defaults to ``T`` (implicit-deadline model).
    J:
        Release jitter (maximum delay between the notional arrival of an
        instance and the moment it is actually queued/released).
    priority:
        Fixed priority; **lower number = higher priority** (the DM/RM
        convention used throughout this library).  ``None`` until a
        priority-assignment pass fills it in.
    name:
        Optional identifier used in reports.
    """

    C: Number
    T: Number
    D: Optional[Number] = None
    J: Number = 0
    priority: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError(f"task {self.name!r}: C must be > 0, got {self.C!r}")
        if self.T <= 0:
            raise ValueError(f"task {self.name!r}: T must be > 0, got {self.T!r}")
        if self.D is None:
            object.__setattr__(self, "D", self.T)
        if self.D <= 0:
            raise ValueError(f"task {self.name!r}: D must be > 0, got {self.D!r}")
        if self.J < 0:
            raise ValueError(f"task {self.name!r}: J must be >= 0, got {self.J!r}")

    @property
    def utilization(self) -> float:
        """``C / T`` as a float (memoised; tasks are immutable)."""
        try:
            return self._utilization
        except AttributeError:
            u = float(self.C) / float(self.T)
            object.__setattr__(self, "_utilization", u)
            return u

    @property
    def density(self) -> float:
        """``C / min(D, T)`` as a float."""
        return float(self.C) / float(min(self.D, self.T))

    def __getstate__(self):
        # Memoised derivations (leading underscore) stay local to the
        # process: some caches are keyed by object identity and would be
        # stale — or worse, colliding — after unpickling in a worker.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def with_priority(self, priority: int) -> "Task":
        # Hot in priority assignment over generated workloads: a direct
        # field copy skips re-running __init__/__post_init__ validation
        # on values that are unchanged and already validated.
        new = object.__new__(Task)
        new.__dict__.update(self.__dict__)
        new.__dict__["priority"] = priority
        return new

    def with_jitter(self, J: Number) -> "Task":
        return replace(self, J=J)


class TaskSet:
    """An ordered collection of :class:`Task` objects.

    Order is preserved (it matters for FCFS reasoning and for stable
    reports) but no priority order is implied; analyses sort by the
    ``priority`` field or by deadline as appropriate.
    """

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: Tuple[Task, ...] = tuple(tasks)
        if not self._tasks:
            raise ValueError("TaskSet must contain at least one task")
        names = [t.name for t in self._tasks if t.name]
        if len(names) != len(set(names)):
            raise ValueError("duplicate task names in TaskSet")
        # Tasks are immutable, so per-set invariants (priority views,
        # utilisation) are computed once and memoised.
        self._cache: dict = {}

    def __getstate__(self):
        # The cache holds identity-keyed structures; rebuild fresh after
        # unpickling (e.g. in a batch worker process).
        return {"_tasks": self._tasks, "_cache": {}}

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, idx: int) -> Task:
        return self._tasks[idx]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskSet) and self._tasks == other._tasks

    def __repr__(self) -> str:
        return f"TaskSet({list(self._tasks)!r})"

    # -- accessors -----------------------------------------------------------
    @property
    def tasks(self) -> Tuple[Task, ...]:
        return self._tasks

    @property
    def utilization(self) -> float:
        """Total utilisation ``ΣCᵢ/Tᵢ``."""
        u = self._cache.get("utilization")
        if u is None:
            u = sum(t.utilization for t in self._tasks)
            self._cache["utilization"] = u
        return u

    @property
    def density(self) -> float:
        return sum(t.density for t in self._tasks)

    @property
    def n(self) -> int:
        return len(self._tasks)

    def by_name(self, name: str) -> Task:
        for t in self._tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    def index_of(self, task: Task) -> int:
        return self._tasks.index(task)

    def hyperperiod(self) -> Optional[int]:
        """LCM of the periods when they are integers, else ``None``."""
        return hyperperiod(t.T for t in self._tasks)

    # -- priority-relative views ----------------------------------------------
    def _require_priorities(self) -> None:
        if any(t.priority is None for t in self._tasks):
            raise ValueError(
                "task set has unassigned priorities; run a priority assignment first"
            )

    def _prio_views(self, task: Task) -> Optional[Tuple[List[Task], List[Task]]]:
        """Memoised ``(hp, lp)`` views for a *member* task (by identity).

        ``None`` for a task that is not a member — those keep the
        uncached path so the identity-based semantics stay exact.
        """
        views = self._cache.get("prio_views")
        if views is None:
            views = {
                id(t): (
                    [u for u in self._tasks if u is not t and u.priority < t.priority],
                    [u for u in self._tasks if u is not t and u.priority > t.priority],
                )
                for t in self._tasks
            }
            self._cache["prio_views"] = views
        return views.get(id(task))

    def hp(self, task: Task) -> List[Task]:
        """Tasks with strictly higher priority than ``task`` (lower number).

        Returns a fresh list (callers may mutate it); the memoised view
        behind it is shared.
        """
        self._require_priorities()
        views = self._prio_views(task)
        if views is not None:
            return list(views[0])
        return [t for t in self._tasks if t is not task and t.priority < task.priority]

    def lp(self, task: Task) -> List[Task]:
        """Tasks with strictly lower priority than ``task`` (fresh list)."""
        self._require_priorities()
        views = self._prio_views(task)
        if views is not None:
            return list(views[1])
        return [t for t in self._tasks if t is not task and t.priority > task.priority]

    def sorted_by_priority(self) -> "TaskSet":
        self._require_priorities()
        return TaskSet(sorted(self._tasks, key=lambda t: t.priority))

    # -- derivation ------------------------------------------------------------
    def map(self, fn) -> "TaskSet":
        """Return a new TaskSet with ``fn`` applied to every task."""
        return TaskSet(fn(t) for t in self._tasks)

    def with_tasks(self, tasks: Sequence[Task]) -> "TaskSet":
        return TaskSet(tasks)


def make_taskset(specs: Iterable[Tuple]) -> TaskSet:
    """Build a :class:`TaskSet` from ``(C, T[, D[, name]])`` tuples.

    A small convenience for tests and examples::

        ts = make_taskset([(1, 4), (2, 6, 5, "video")])
    """
    tasks = []
    for i, spec in enumerate(specs):
        spec = tuple(spec)
        if len(spec) == 2:
            C, T = spec
            tasks.append(Task(C=C, T=T, name=f"t{i}"))
        elif len(spec) == 3:
            C, T, D = spec
            tasks.append(Task(C=C, T=T, D=D, name=f"t{i}"))
        elif len(spec) == 4:
            C, T, D, name = spec
            tasks.append(Task(C=C, T=T, D=D, name=name))
        else:
            raise ValueError(f"bad task spec {spec!r}")
    return TaskSet(tasks)
