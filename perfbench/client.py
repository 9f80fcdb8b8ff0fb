"""The server child process and keep-alive HTTP connections to it."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_SERVING = re.compile(rb"serving on http://([^:\s]+):(\d+)")

#: Seconds a launch may take to answer its first /impute.
READY_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server could not be started, reached, or stopped cleanly."""


class Server:
    """One CLI server launched through ``serve.py`` into *workdir*.

    ``stdout``/``stderr`` go to files in *workdir* (the CLI prints its
    bound port there); *spans* makes the launcher trace layers and dump
    the spans to that path at shutdown.
    """

    def __init__(self, workdir, cli_args, spans=None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.stdout_path = self.workdir / "stdout.log"
        self.stderr_path = self.workdir / "stderr.log"
        command = [sys.executable, "-u", str(HERE / "serve.py")]
        if spans:
            command += ["--spans", str(spans)]
        command += ["--", *cli_args]
        # A fixed hash seed keeps set and dict orders, and so the work
        # done, identical from one launch to the next.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT, env=env)
        self.host = self.port = None

    def wait_ready(self, probe_body):
        """Block until a POST of *probe_body* answers 200; returns the
        seconds since launch (``setup_s``)."""
        deadline = self.started + READY_TIMEOUT_S
        while self.port is None:
            match = _SERVING.search(self.stdout_path.read_bytes())
            if match:
                self.host, self.port = match.group(1).decode(), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        conn = Connection(self.host, self.port)
        try:
            while True:
                status, _, _ = conn.post("/impute", probe_body)
                if status == 200:
                    return time.perf_counter() - self.started
                self._check_alive(deadline)
                time.sleep(0.005)
        finally:
            conn.close()

    def _check_alive(self, deadline):
        if self.proc.poll() is not None:
            raise ServerError(f"server exited with {self.proc.returncode}: {self.log_tail()}")
        if time.perf_counter() > deadline:
            raise ServerError(f"server not ready after {READY_TIMEOUT_S:.0f} s")

    def peak_rss_mb(self):
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def log_tail(self, lines=20):
        text = self.stderr_path.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def stop(self):
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck.
        Raises :class:`ServerError` when the clean shutdown failed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise ServerError("server ignored SIGINT for 30 s; killed") from None
        if self.proc.returncode not in (0, -signal.SIGINT):
            raise ServerError(f"server exited with {self.proc.returncode}: {self.log_tail()}")


class Connection:
    """A keep-alive HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host, port, timeout=60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn = None

    def _request(self, method, path, body=None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b"", time.perf_counter() - started
        return response.status, data, time.perf_counter() - started

    def post(self, path, body):
        """``(status or None on transport failure, body, seconds)``."""
        return self._request("POST", path, body)

    def get_json(self, path):
        status, data, _ = self._request("GET", path)
        if status != 200:
            raise ServerError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def fingerprint():
    """Machine fingerprint recorded with every result."""
    import platform

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
