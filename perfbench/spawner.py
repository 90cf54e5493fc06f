"""Start child processes from a helper forked while the caller was still small.

Linux carries a process's peak RSS across exec, so a command started from a
large process reports at least that process's resident size as its own
ru_maxrss. The worker forks this helper before it imports NumPy or araf;
the helper starts each araf command and reads that command's own peak RSS
and wall time through wait4.
"""

from __future__ import annotations

import json
import os
import subprocess
import time


class Spawner:
    def __init__(self) -> None:
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(res_r)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # never hold the worker's result pipe open
            try:
                with os.fdopen(req_r) as requests, os.fdopen(res_w, "w") as replies:
                    _serve(requests, replies)
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(res_w)
        self.pid = pid
        self._requests = os.fdopen(req_w, "w")
        self._replies = os.fdopen(res_r)

    def run(self, argv: list, env: dict) -> dict:
        """Run argv to completion: {"seconds", "code", "rss_mb", "stderr"}."""
        self._requests.write(json.dumps({"argv": argv, "env": env}) + "\n")
        self._requests.flush()
        line = self._replies.readline()
        if not line:
            raise RuntimeError("spawner process ended")
        return json.loads(line)

    def close(self) -> None:
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)


def _serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], env=req["env"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            err = proc.stderr.read()
        finally:
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "seconds": time.perf_counter() - start,
            "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": err.decode("utf-8", "replace").strip()[-300:],
        }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
