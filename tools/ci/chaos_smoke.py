#!/usr/bin/env python3
"""Chaos smoke for the self-healing serving path (CI chaos-smoke lane).

Boots opwatd through a scripted sequence of crash-shaped snapshot
damage and deterministic socket-fault schedules (OPWAT_FAILPOINTS) and
asserts the self-healing contracts end to end, from outside the
process:

  1. generate + persist a snapshot, serve it, drain on SIGINT (exit 0);
  2. a torn snapshot tail is refused by a strict boot with exit code 3
     and a typed store_errc on stderr;
  3. opwatc_fsck flags the torn file, and --repair rewrites it in place
     into a file fsck then passes;
  4. a --recover boot serves the salvaged prefix, reports
     degraded=true in /healthz, and heals injected send faults
     (net-send=2-times:error) through opwat_query --retry with zero
     giveups;
  5. binding the occupied port exits with code 4 (distinct from load
     failures, so supervisors can tell "fix the config" from "restart");
  6. SIGHUP with a corrupt file on disk keeps the previous snapshot
     serving (reload_failures counts it); SIGHUP after the file is
     restored publishes the fresh snapshot and clears degraded;
  7. the final SIGINT drains cleanly (exit 0);
  8. every non-numeric or out-of-range --port/--workers/--epochs/--seed
     value exits 2 (usage) without ever printing the readiness line.

Every phase has a hard deadline — a hang is a failure, not a wait.

Usage: chaos_smoke.py BUILD_DIR [--keep]
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

DEADLINE_S = 30.0


class ChaosError(Exception):
    pass


def log(msg):
    print(f"chaos-smoke: {msg}", flush=True)


class Opwatd:
    """One opwatd process: spawn, wait for readiness, signal, reap."""

    def __init__(self, binary, args, logpath, env=None):
        self.logpath = logpath
        self.logfh = open(logpath, "w", encoding="utf-8")
        full_env = dict(os.environ)
        full_env.pop("OPWAT_FAILPOINTS", None)
        full_env.pop("OPWAT_FAILPOINTS_SEED", None)
        if env:
            full_env.update(env)
        self.proc = subprocess.Popen(
            [binary] + args, stdout=self.logfh, stderr=subprocess.STDOUT,
            env=full_env)
        self.port = None

    def read_log(self):
        with open(self.logpath, encoding="utf-8") as fh:
            return fh.read()

    def wait_ready(self):
        """Blocks until the readiness line appears; returns the port."""
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            text = self.read_log()
            for line in text.splitlines():
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    return self.port
            if self.proc.poll() is not None:
                raise ChaosError(
                    f"opwatd exited rc={self.proc.returncode} before "
                    f"readiness:\n{text}")
            time.sleep(0.05)
        raise ChaosError(f"opwatd not ready in {DEADLINE_S}s:\n{self.read_log()}")

    def wait_log(self, needle):
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if needle in self.read_log():
                return
            if self.proc.poll() is not None:
                raise ChaosError(
                    f"opwatd exited rc={self.proc.returncode} while waiting "
                    f"for {needle!r}:\n{self.read_log()}")
            time.sleep(0.05)
        raise ChaosError(
            f"{needle!r} not seen in {DEADLINE_S}s:\n{self.read_log()}")

    def signal(self, sig):
        self.proc.send_signal(sig)

    def wait_exit(self):
        try:
            rc = self.proc.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise ChaosError(f"opwatd did not exit in {DEADLINE_S}s (hang)")
        finally:
            self.logfh.close()
        return rc

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.logfh.close()


def http_json(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=DEADLINE_S) as resp:
        return json.loads(resp.read().decode())


def run(cmd, env=None, expect_rc=0):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    r = subprocess.run(cmd, capture_output=True, text=True, env=full_env,
                       timeout=DEADLINE_S * 2)
    if r.returncode != expect_rc:
        raise ChaosError(
            f"{' '.join(cmd)}: rc={r.returncode}, wanted {expect_rc}\n"
            f"stdout:\n{r.stdout}\nstderr:\n{r.stderr}")
    return r


# Numeric flag values opwatd must refuse with exit code 2 before it
# starts a thread.  Against a binary that reads them with atoi-style
# parsing, the negative and huge --workers values would ask the OS for
# that many threads, so run only the harmless cases there.
BAD_NUMERIC_FLAGS = (
    ("--workers", "abc"),
    ("--workers", "0"),
    ("--workers", "-1"),
    ("--workers", "257"),
    ("--workers", "99999999999999999999"),
    ("--workers", "2x"),
    ("--port", "70000"),
    ("--port", "-1"),
    ("--port", ""),
    ("--epochs", "0"),
    ("--epochs", "-1"),
    ("--seed", "-5"),
    ("--seed", "1.5"),
)


def expect_usage_exit(binary, flag, value, logpath):
    """Runs opwatd with one bad numeric flag; it must exit 2 and never
    print its readiness line.  A process that starts listening, or is
    still running at the deadline, fails at once."""
    with open(logpath, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [binary, "--gen", "small", "--port", "0", flag, value],
            stdout=fh, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + DEADLINE_S
            while proc.poll() is None and time.monotonic() < deadline:
                with open(logpath, encoding="utf-8") as rd:
                    if "listening" in rd.read():
                        break
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(logpath, encoding="utf-8") as rd:
        text = rd.read()
    if "listening" in text or proc.returncode != 2:
        raise ChaosError(
            f"opwatd {flag} {value!r}: rc={proc.returncode}, wanted 2 "
            f"without listening\n{text}")


def check_bad_numeric_flags(binary, work, cases=BAD_NUMERIC_FLAGS):
    for i, (flag, value) in enumerate(cases):
        expect_usage_exit(binary, flag, value,
                          os.path.join(work, f"badflag{i}.log"))


def main():
    args = [a for a in sys.argv[1:] if a != "--keep"]
    keep = "--keep" in sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    build = os.path.abspath(args[0])
    opwatd = os.path.join(build, "opwatd")
    opwat_query = os.path.join(build, "opwat_query")
    opwatc_fsck = os.path.join(build, "opwatc_fsck")
    for b in (opwatd, opwat_query, opwatc_fsck):
        if not os.path.exists(b):
            print(f"missing binary {b} — build opwatd opwat_query "
                  "opwatc_fsck first", file=sys.stderr)
            return 2

    work = tempfile.mkdtemp(prefix="opwat_chaos_")
    snap = os.path.join(work, "catalog.opwatc")
    torn = os.path.join(work, "torn.opwatc")
    servers = []
    try:
        # --- 1. generate, persist, serve, drain --------------------------
        log("phase 1: generate + save + clean drain")
        srv = Opwatd(opwatd, ["--gen", "small", "--save", snap, "--port", "0"],
                     os.path.join(work, "gen.log"))
        servers.append(srv)
        port = srv.wait_ready()
        health = http_json(port, "/healthz")
        if health.get("degraded") is not False:
            raise ChaosError(f"fresh catalog reports degraded: {health}")
        run([opwat_query, "--connect", f"127.0.0.1:{port}", "--op", "epochs"])
        srv.signal(signal.SIGINT)
        rc = srv.wait_exit()
        if rc != 0:
            raise ChaosError(f"clean drain exited rc={rc}:\n{srv.read_log()}")
        if "protocol_errors=0" not in srv.read_log():
            raise ChaosError(f"drain summary missing:\n{srv.read_log()}")

        # --- 2. torn tail: strict boot refuses with exit code 3 ----------
        log("phase 2: torn snapshot, strict boot exits 3 with typed errc")
        shutil.copyfile(snap, torn)
        with open(torn, "ab") as fh:
            fh.write(b"\xee" * 120)  # crash-shaped trailing garbage
        r = subprocess.run([opwatd, "--load", torn, "--port", "0"],
                           capture_output=True, text=True, timeout=DEADLINE_S)
        if r.returncode != 3:
            raise ChaosError(
                f"strict boot on torn file: rc={r.returncode}, wanted 3\n"
                f"{r.stdout}\n{r.stderr}")
        if "store_errc::" not in r.stderr:
            raise ChaosError(f"no typed errc on stderr: {r.stderr!r}")

        # --- 3. fsck sees the damage; --repair heals it in place ---------
        log("phase 3: opwatc_fsck --repair")
        repaired = os.path.join(work, "repaired.opwatc")
        shutil.copyfile(torn, repaired)
        r = subprocess.run([opwatc_fsck, repaired], capture_output=True,
                           text=True, timeout=DEADLINE_S)
        if r.returncode == 0:
            raise ChaosError("fsck passed a torn file")
        run([opwatc_fsck, "--repair", repaired])
        run([opwatc_fsck, repaired])

        # --- 4. recover boot under injected send faults ------------------
        log("phase 4: --recover boot, healing net-send faults via --retry")
        srv = Opwatd(
            opwatd, ["--load", torn, "--recover", "--port", "0"],
            os.path.join(work, "recover.log"),
            env={"OPWAT_FAILPOINTS": "net-send=2-times:error"})
        servers.append(srv)
        port = srv.wait_ready()
        # The retrying client must heal through both injected faults —
        # reconnect + resend — and still print the response.  Each
        # failed server send burns one fire, so by the third attempt the
        # wire is clean.
        r = run([opwat_query, "--connect", f"127.0.0.1:{port}", "--op",
                 "epochs", "--retry", "6", "--repeat", "3"])
        if "giveups=0" not in r.stderr:
            raise ChaosError(f"retry stats missing/giving up: {r.stderr!r}")
        # Faults exhausted: the debug surface reports the salvage.
        health = http_json(port, "/healthz")
        if health.get("degraded") is not True:
            raise ChaosError(f"recovered boot not degraded: {health}")
        stats = http_json(port, "/stats")
        if stats.get("bytes_truncated", 0) <= 0:
            raise ChaosError(f"bytes_truncated not reported: {stats}")

        # --- 5. occupied port: bind failure is exit code 4 ---------------
        log("phase 5: bind to the occupied port exits 4")
        r = subprocess.run(
            [opwatd, "--gen", "small", "--port", str(port)],
            capture_output=True, text=True, timeout=DEADLINE_S * 2)
        if r.returncode != 4:
            raise ChaosError(
                f"bind clash: rc={r.returncode}, wanted 4\n{r.stderr}")

        # --- 6. SIGHUP: corrupt reload is survived, good reload lands ----
        log("phase 6: SIGHUP with corrupt then restored file")
        with open(torn, "wb") as fh:
            fh.write(b"not an opwatc file")
        srv.signal(signal.SIGHUP)
        srv.wait_log("reload failed, keeping current snapshot")
        run([opwat_query, "--connect", f"127.0.0.1:{port}", "--op", "epochs"])
        stats = http_json(port, "/stats")
        if stats.get("reload_failures", 0) != 1:
            raise ChaosError(f"reload_failures != 1: {stats}")
        shutil.copyfile(snap, torn)  # the operator fixed the file
        srv.signal(signal.SIGHUP)
        srv.wait_log("reloaded")
        health = http_json(port, "/healthz")
        if health.get("degraded") is not False:
            raise ChaosError(f"degraded after clean reload: {health}")
        run([opwat_query, "--connect", f"127.0.0.1:{port}", "--op", "epochs"])

        # --- 7. final drain ----------------------------------------------
        log("phase 7: SIGINT drain")
        srv.signal(signal.SIGINT)
        rc = srv.wait_exit()
        if rc != 0:
            raise ChaosError(f"final drain rc={rc}:\n{srv.read_log()}")

        # --- 8. bad numeric flags are usage errors -----------------------
        log("phase 8: bad numeric flag values exit 2 before listening")
        check_bad_numeric_flags(opwatd, work)

        log("all phases OK")
        return 0
    except ChaosError as e:
        print(f"::error title=chaos smoke failed::{e}", flush=True)
        return 1
    finally:
        for s in servers:
            s.kill()
        if keep:
            log(f"artifacts kept in {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
