"""The system under test as a child process, and what /proc says about it.

Every workload runs the program in its own process tree under default
settings: the environment loses every ``REPRO_*`` knob, and the only
thing added is ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

STARTUP_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run could not be measured; no metric may be printed."""


class CorrectnessError(BenchError):
    """An answer differed from the legacy oracle."""


def hermetic_env() -> dict[str, str]:
    """The caller's environment minus ``REPRO_*``, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One spawned process with piped stdout and a bounded stderr tail."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.stderr_tail: collections.deque[str] = collections.deque(maxlen=40)
        self._drain = asyncio.get_running_loop().create_task(self._read_stderr())

    @classmethod
    async def spawn(cls, *argv: str, stdin=asyncio.subprocess.DEVNULL) -> "Child":
        proc = await asyncio.create_subprocess_exec(
            *argv,
            cwd=str(ROOT),
            env=hermetic_env(),
            stdin=stdin,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
        )
        return cls(proc)

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def _read_stderr(self) -> None:
        while True:
            line = await self.proc.stderr.readline()
            if not line:
                return
            self.stderr_tail.append(line.decode("utf-8", "replace").rstrip())

    async def readline(self, timeout_s: float, what: str) -> bytes:
        """One stdout line, or :class:`BenchError` naming ``what``."""
        try:
            line = await asyncio.wait_for(self.proc.stdout.readline(), timeout_s)
        except asyncio.TimeoutError:
            raise BenchError(f"timed out after {timeout_s:g} s waiting for {what}") from None
        if not line:
            await asyncio.sleep(0.1)  # let the stderr tail catch up
            raise BenchError(f"process exited before {what}:\n" + self.describe())
        return line

    def describe(self) -> str:
        return "\n".join(self.stderr_tail) or "(no stderr)"

    async def stop(self) -> None:
        """Reap the process: a child reading stdin gets EOF and a moment
        to exit on its own; otherwise it is terminated, then killed if it
        lingers."""
        if self.proc.stdin is not None and not self.proc.stdin.is_closing():
            self.proc.stdin.close()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
            except asyncio.TimeoutError:
                with contextlib.suppress(ProcessLookupError):
                    self.proc.kill()
                await self.proc.wait()
        self._drain.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._drain


def _stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` fields from field 3 (state) on."""
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2 :].split()


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant."""
    parents: dict[int, list[int]] = collections.defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(_stat_fields(int(entry))[1])].append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
    tree, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time of ``pids`` (all threads)."""
    total = 0
    for pid in pids:
        with contextlib.suppress(OSError):
            fields = _stat_fields(pid)
            total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
    return total_kb / 1024.0
