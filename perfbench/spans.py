"""Stdlib span recorder for the traced run.

A :class:`Recorder` keeps spans (name, start, end, parent, job) in memory
and writes them out when the run ends.  :meth:`Recorder.wrap` replaces a
function or method *where the calling code looks it up* (a class attribute,
or the name bound in the calling module) with a wrapper that only times the
call and forwards its arguments and result unchanged; :meth:`Recorder.unwrap`
restores every original.

Job correlation: a span belongs to the job its ``job_of`` hook names, else
to its parent span's job, else to the job the current thread declared with
:meth:`Recorder.job`.  The service's scheduler thread declares nothing, so
the benchmark :meth:`binds <Recorder.bind>` each submitted circuit to its job
and the ``Session.run`` wrapper looks the job up from the circuit it runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed call; times are ``perf_counter_ns`` readings."""

    id: int
    name: str
    start: int
    end: int
    parent: int | None
    job: object
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._jobs_by_object: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def job(self, job: object) -> Iterator[None]:
        """Attribute spans opened on this thread to *job* while inside."""
        previous = getattr(self._local, "job", None)
        self._local.job = job
        try:
            yield
        finally:
            self._local.job = previous

    def bind(self, obj: object, job: object) -> None:
        """Remember that *obj* (kept alive by the caller) belongs to *job*."""
        self._jobs_by_object[id(obj)] = job

    def job_for(self, obj: object) -> object:
        return self._jobs_by_object.get(id(obj))

    @contextmanager
    def span(self, name: str, job: object = None) -> Iterator[dict]:
        """Time the body as span *name*; yields the span's attribute dict."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None:
            job = parent.job if parent is not None else getattr(self._local, "job", None)
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter_ns(),
            end=0,
            parent=parent.id if parent is not None else None,
            job=job,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span.attrs
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        job_of: Callable[[tuple, dict], object] | None = None,
        attrs_of: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        ``job_of(args, kwargs)`` may name the call's job; ``attrs_of(args,
        kwargs, result)`` labels the span after the call has returned, so
        neither changes what the call does or what it returns.
        """
        original = vars(owner)[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            job = job_of(args, kwargs) if job_of is not None else None
            with recorder.span(name, job=job) as attrs:
                result = original(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                            "job": span.job,
                            "thread": span.thread,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )
