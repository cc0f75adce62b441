"""Program processes: launch, readiness, memory, clean stop, leak guard.

Every program process the benchmark starts goes through
:class:`Program`.  It records the process tree while the program runs
(``/proc`` parent links), reads each process's ``VmHWM`` before the
stop, stops the root with SIGINT (never SIGTERM: ``repro serve
--workers N`` stopped with SIGTERM orphans its fleet workers), and
then checks that no recorded process outlived the stop.  A survivor
is killed and reported, so the run that produced it counts as failed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Variables that would change kernel dispatch behind the benchmark's
#: back.  They are removed from every program environment; the
#: calibration path is pinned to a file that never exists, so the
#: shipped threshold table is the one in use.
DISPATCH_ENV = ("REPRO_BACKEND", "REPRO_CALIBRATION", "REPRO_NO_NUMPY")


def program_env(root: Path, work: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DISPATCH_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CALIBRATION"] = str(work / "no-calibration.json")
    env["PYTHONHASHSEED"] = "0"
    return env


def _stat(pid: int) -> Optional[Tuple[int, str, int]]:
    """``(ppid, state, starttime)`` of a live process, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), fields[0], int(fields[19])


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Program:
    """One launched program process and the tree below it."""

    def __init__(self, argv: Sequence[str], *, root: Path,
                 work: Path) -> None:
        self.argv = list(argv)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=str(root), env=program_env(root, work),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        #: pid -> starttime of every process seen in the tree, so a
        #: recycled pid is never mistaken for a survivor.
        self.seen: Dict[int, int] = {}
        self.note_tree()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def note_tree(self) -> List[int]:
        """Record every live descendant (and the root); return them."""
        stats = {pid: _stat(pid) for pid in _all_pids()}
        children: Dict[int, List[int]] = {}
        for pid, st in stats.items():
            if st is not None:
                children.setdefault(st[0], []).append(pid)
        tree, stack = [], [self.pid]
        while stack:
            pid = stack.pop()
            st = stats.get(pid)
            if st is None or st[1] == "Z":
                continue
            tree.append(pid)
            self.seen.setdefault(pid, st[2])
            stack.extend(children.get(pid, ()))
        return tree

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the live tree, in MiB."""
        return sum(vm_hwm_kb(pid) for pid in self.note_tree()) / 1024.0

    def stderr_tail(self) -> str:
        if self.proc.poll() is None:
            return "(still running)"
        return (self.proc.stderr.read() or "")[-2000:]

    def stop(self, grace: float = 30.0) -> List[int]:
        """SIGINT the root, wait, and return the pids that outlived it.

        Survivors are SIGKILLed so that the benchmark never leaves a
        process behind.
        """
        self.note_tree()
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
        try:
            self.proc.communicate(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        deadline = time.monotonic() + 5.0
        survivors = self._survivors()
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = self._survivors()
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return survivors

    def _survivors(self) -> List[int]:
        alive = []
        for pid, start in self.seen.items():
            st = _stat(pid)
            if st is not None and st[2] == start and st[1] != "Z":
                alive.append(pid)
        return alive

