"""Program registry and process context (paper section 4.2).

In the paper, each PROCESSES line names a source directory with a Makefile
producing a ``boss`` or ``worker`` executable, shipped via NFS.  In the
reproduction, a *program* is a Python callable registered under the
directory name; the callable receives the process's :class:`Memo` API and a
:class:`ProcessContext` describing where it runs.

"These two types of programs typically use the host-node paradigm; where
the boss is the controlling process and the workers do the parallelized/
distributed work (other programming paradigms are also supported)."
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.api import Memo
from repro.errors import RuntimeLaunchError

__all__ = ["ProcessContext", "ProgramRegistry", "Program"]

#: Signature every program implements.
Program = Callable[[Memo, "ProcessContext"], object]


@dataclass(frozen=True)
class ProcessContext:
    """What a running process knows about itself and its application.

    Attributes:
        app: application name.
        proc_id: this process's numeric name from the PROCESSES section.
        program: program (directory) name it was started from.
        host: host it runs on.
        peers: all process ids in the application, in ADF order.
        params: free-form application parameters passed to the launcher.
    """

    app: str
    proc_id: str
    program: str
    host: str
    peers: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    @property
    def is_boss(self) -> bool:
        """Conventionally, process "0" running the ``boss`` program."""
        return self.program == "boss" or self.proc_id == "0"

    @property
    def worker_index(self) -> int:
        """Zero-based index among this application's non-boss processes."""
        workers = [p for p in self.peers if p != "0"]
        try:
            return workers.index(self.proc_id)
        except ValueError:
            return 0

    @property
    def num_workers(self) -> int:
        """Number of non-boss processes."""
        return len([p for p in self.peers if p != "0"])


class ProgramRegistry:
    """Name → program table; plays the rôle of the built executables."""

    def __init__(self) -> None:
        self._programs: dict[str, Program] = {}
        self._lock = threading.Lock()

    def register(self, name: str, program: Program | None = None):
        """Register a program; usable as ``@registry.register("boss")``."""

        def apply(fn: Program) -> Program:
            with self._lock:
                if name in self._programs and self._programs[name] is not fn:
                    raise RuntimeLaunchError(f"program {name!r} already registered")
                self._programs[name] = fn
            return fn

        if program is not None:
            return apply(program)
        return apply

    def lookup(self, name: str) -> Program:
        """Find a program by directory name."""
        with self._lock:
            program = self._programs.get(name)
        if program is None:
            raise RuntimeLaunchError(
                f"no program registered under {name!r}; "
                f"available: {sorted(self._programs)}"
            )
        return program

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._programs))
