#!/usr/bin/env python3
"""End-to-end benchmark of umlfront: one workload per way users reach the flow.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 25 --trace 0

Run from the repository root.  It builds bin/umlfront.exe,
perfbench/pb.exe and perfbench/runcli.exe with dune, has pb.exe
generate the seeded inputs, their fixed operation sequence and
reference digests, drives the workload against the built binary,
checks every output, and prints one JSON object as the last line of
stdout.  --trace 0 reports the
end-to-end metrics; --trace 1 also replays the measured operations
in-process layer by layer and reports the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UMLFRONT = os.path.join(ROOT, "_build", "default", "bin", "umlfront.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
RUNCLI = os.path.join(ROOT, "_build", "default", "perfbench", "runcli.exe")
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("serve-hot", "serve-cold", "cli-simulate")
# A run is this many legs, each a set-up followed by one slice of
# the measured sequence.  setup_s, throughput, CPU per op and p50 are
# medians over the legs, so a noisy stretch of the run moves none
# of them.
LEGS = 11
# Concurrent client connections (closed loop).
CONNECTIONS = {"serve-hot": 1, "serve-cold": 2}
# Measured operations the traced run replays in-process.
REPLAY_OPS = {"serve-hot": 600, "serve-cold": 500, "cli-simulate": 130}
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def md5(data):
    return hashlib.md5(data).hexdigest()


# --- build and inputs --------------------------------------------------


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project next to perfbench/: not a umlfront checkout")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./bin/umlfront.exe", "./perfbench/pb.exe", "./perfbench/runcli.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("dune build failed")


def generate(workload, seed, seconds, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    subprocess.run([PB, "gen", workload, str(seed), str(seconds), work], check=True,
                   stdout=sys.stderr)
    with open(os.path.join(work, "plan.json")) as f:
        plan = json.load(f)
    for key in plan["keys"]:
        if key["req"]:
            with open(os.path.join(work, key["req"]), "rb") as f:
                key["raw"] = f.read()
    return plan


# --- output checks -----------------------------------------------------


def check_body(key, body):
    """Whether a served body reproduces the key's reference digest."""
    ep, ref = key["ep"], key["ref"]
    if ep == "lint":
        # Byte parity with `umlfront lint --format json FILE`.
        return md5(body) == ref
    doc = json.loads(body, parse_float=str, parse_int=str)
    if ep == "transform":
        return md5(doc["mdl"].encode()) == ref
    if ep == "simulate":
        # Samples as the daemon printed them, against the sequential
        # executor's trace rendered the same way.
        text = "\n".join(t["port"] + ":" + ",".join(t["samples"]) for t in doc["traces"])
        return md5(text.encode()) == ref
    if ep == "generate/c":
        text = "".join(name + "\n" + code + "\n" for name, code in doc["files"].items())
        return md5(text.encode()) == ref
    raise BenchError("unknown endpoint " + ep)


def check_cli(key, stdout):
    lines = stdout.split(b"\n", key["lines"])
    return len(lines) > key["lines"] and md5(b"\n".join(lines[:key["lines"]]) + b"\n") == key["ref"]


# --- the daemon ---------------------------------------------------------


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Conn:
    """One HTTP/1.1 client connection, reading Content-Length framed replies."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, raw):
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
        length = int(headers.get("content-length", "0"))
        chunks, have = [rest], len(rest)
        while have < length:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("connection closed mid-body")
            chunks.append(chunk)
            have += len(chunk)
        data = b"".join(chunks)
        self.buf = data[length:]
        return status, headers, data[:length]

    def _recv(self):
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("connection closed before a reply")
        self.buf += chunk

    def close(self):
        self.sock.close()


def get(port, path):
    conn = Conn(port)
    try:
        return conn.request(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
                             % path).encode())
    finally:
        conn.close()


class Daemon:
    def __init__(self, cache_mb):
        args = [UMLFRONT, "serve", "--port", "0", "--pool", "2"]
        if cache_mb:
            args += ["--cache-mb", str(cache_mb)]
        self.proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        try:
            line = self.proc.stdout.readline().decode()
            if "127.0.0.1:" not in line:
                raise BenchError("umlfront serve did not start: %r" % line)
            self.port = int(line.strip().rsplit(":", 1)[1])
            while not self.healthy():
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise

    def healthy(self):
        try:
            return get(self.port, "/healthz")[0] == 200
        except OSError:
            return False

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def metrics(self):
        status, _, body = get(self.port, "/metrics")
        if status != 200:
            raise BenchError("/metrics answered %d" % status)
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def windows_p50_us(self):
        status, _, body = get(self.port, "/api/windows")
        if status != 200:
            raise BenchError("/api/windows answered %d" % status)
        widest = max(json.loads(body)["windows"], key=lambda w: w["window_s"])
        return {name: s["p50"] for name, s in widest["series"].items() if "p50" in s}


class Run:
    """What one run measured: a set-up and a slice of the measured
    sequence per leg, plus the checks."""

    def __init__(self):
        self.setups = []  # seconds, one per leg
        self.slices = []  # (ops, wall s, cpu s, [latency s]), one per leg
        self.out_bytes = 0
        self.hwm_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.extra = {}  # figures only the traced run reports

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def latencies(self):
        return [x for s in self.slices for x in s[3]]


def legs(seq):
    """The measured sequence in LEGS contiguous parts."""
    n = len(seq)
    return [seq[n * j // LEGS:n * (j + 1) // LEGS] for j in range(LEGS)]


def closed_loop(ops, connections, send):
    """Run ops (in order) from `connections` client threads, each sending
    its next op only after its previous reply."""
    nxt = [0]
    lock = threading.Lock()
    errors = []

    def worker():
        try:
            while True:
                with lock:
                    i = nxt[0]
                    nxt[0] += 1
                if i >= len(ops):
                    return
                send(i, ops[i])
        except BaseException as e:  # surfaced after join
            errors.append(e)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def serve_pass(plan, daemon, key_ids, connections, keep_alive, same_as=None):
    """Post key_ids in order; return per-op (key index, status, x-cache,
    body, latency s, body bytes).  With same_as (key index -> bytes)
    each body is compared on arrival and replaced by the verdict."""
    keys = plan["keys"]
    reqs = [keys[k]["raw"] for k in key_ids]
    results = [None] * len(key_ids)
    local = threading.local()

    def send(i, raw):
        t0 = time.perf_counter()
        if keep_alive:
            if not hasattr(local, "conn"):
                local.conn = Conn(daemon.port)
            status, headers, body = local.conn.request(raw)
        else:
            conn = Conn(daemon.port)
            try:
                status, headers, body = conn.request(raw)
            finally:
                conn.close()
        latency = time.perf_counter() - t0
        k = key_ids[i]
        size = len(body)
        if same_as is not None:
            body = body == same_as[k]
        results[i] = (k, status, headers.get("x-cache"), body, latency, size)

    try:
        closed_loop(reqs, connections, send)
    finally:
        if hasattr(local, "conn"):
            local.conn.close()
    return results


def serve_workload(plan, trace):
    """Each leg: spawn -> /healthz 200 -> warm-up (timed as set-up),
    then one slice of the measured sequence on that daemon."""
    workload = plan["workload"]
    keys = plan["keys"]
    hot = workload == "serve-hot"
    conns = CONNECTIONS[workload]
    run = Run()
    miss_body = {}
    counters = {}
    ratios = []  # (client p50 / daemon p50, ops) per leg and endpoint

    def verify(results, want_cache):
        for k, status, cache, body, _, _ in results:
            ok = status == 200 and cache == want_cache
            if ok and isinstance(body, bool):
                ok = body
            elif ok:
                ok = check_body(keys[k], body)
                miss_body[k] = body
            run.check(ok)

    for part in legs(plan["measure"]):
        t0 = time.perf_counter()
        daemon = Daemon(plan["cache_mb"])
        try:
            warm = serve_pass(plan, daemon, plan["warmup"], conns, keep_alive=hot)
            run.setups.append(time.perf_counter() - t0)
            verify(warm, "miss")
            pid = daemon.proc.pid
            before = daemon.metrics() if trace else {}
            cpu0, wall0 = proc_cpu_s(pid), time.perf_counter()
            # Hits are compared on arrival with the miss bytes of their
            # key; misses are checked against their references below.
            measured = serve_pass(plan, daemon, part, conns, keep_alive=hot,
                                  same_as=miss_body if hot else None)
            wall, cpu = time.perf_counter() - wall0, proc_cpu_s(pid) - cpu0
            run.hwm_mb = max(run.hwm_mb, proc_hwm_mb(pid))
            if trace:
                after = daemon.metrics()
                for name in after:
                    counters[name] = counters.get(name, 0.0) + after[name] - before.get(name, 0.0)
                daemon_p50 = daemon.windows_p50_us()
        finally:
            daemon.stop()
        run.slices.append((len(part), wall, cpu, [r[4] for r in measured]))
        run.out_bytes += sum(r[5] for r in measured)
        verify(measured, "hit" if hot else "miss")
        if trace:
            by_ep = {}
            for k, _, _, _, latency, _ in measured:
                by_ep.setdefault("/api/" + keys[k]["ep"], []).append(latency * 1e6)
            ratios += [(statistics.median(v) / daemon_p50[ep], len(v))
                       for ep, v in by_ep.items() if daemon_p50.get(ep)]

    if trace:
        n = len(plan["measure"])
        lookups = counters["umlfront_serve_cache_hits"] + counters["umlfront_serve_cache_misses"]
        run.extra = {
            "cache.hit_ratio": counters["umlfront_serve_cache_hits"] / lookups,
            "cache.evictions_per_op": counters["umlfront_serve_cache_evictions"] / n,
            "core.flow_runs_per_op": counters.get("umlfront_flow_runs_total", 0.0) / n,
            "serve.self_report_ratio": sum(r * c for r, c in ratios) / sum(c for _, c in ratios),
        }
    return run


# --- the CLI ------------------------------------------------------------


def simulate(plan, work, key_ids):
    """Run `umlfront simulate` once per key, one process at a time, from
    runcli.exe; return per run (wall s, cpu s, maxrss MB, stdout bytes, ok)."""
    keys = plan["keys"]
    proc = subprocess.run(
        [RUNCLI, UMLFRONT, "simulate", "--engine", "compiled", "--rounds", str(plan["rounds"]),
         "--"] + [plan["models"][keys[k]["m"]] for k in key_ids],
        cwd=work, stdout=subprocess.PIPE, check=True)
    out, pos, runs = proc.stdout, 0, []
    for k in key_ids:
        eol = out.index(b"\n", pos)
        wall_ns, cpu_us, rss_kb, status, size = map(int, out[pos:eol].split())
        pos = eol + 1 + size
        ok = status == 0 and check_cli(keys[k], out[eol + 1:pos])
        runs.append((wall_ns / 1e9, cpu_us / 1e6, rss_kb / 1024.0, size, ok))
    if pos != len(out):
        raise BenchError("runcli printed more than its runs")
    return runs


def cli_workload(plan, work):
    """Each leg: one invocation per distinct model (timed as set-up),
    then one slice of the measured sequence."""
    run = Run()
    for part in legs(plan["measure"]):
        runs = simulate(plan, work, plan["warmup"] + part)
        warm, measured = runs[:len(plan["warmup"])], runs[len(plan["warmup"]):]
        run.setups.append(sum(r[0] for r in warm))
        for r in runs:
            run.check(r[4])
        run.hwm_mb = max([run.hwm_mb] + [r[2] for r in runs])
        run.out_bytes += sum(r[3] for r in measured)
        run.slices.append((len(part), sum(r[0] for r in measured), sum(r[1] for r in measured),
                           [r[0] for r in measured]))
    return run


# --- metrics --------------------------------------------------------------


def nearest_rank(sorted_values, p):
    """The p-quantile (nearest rank) of a sorted list."""
    i = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(i)]


def end_to_end(run):
    """Every timing is a median over the legs' slices.  The p99 too: a
    slow stretch that covers one leg holds a tenth of the run's samples,
    so the p99 of all samples pooled would be that stretch's."""
    n = sum(s[0] for s in run.slices)

    def leg_median(p):
        return statistics.median(nearest_rank(sorted(l), p) * 1e3 for _, _, _, l in run.slices)

    return {
        "throughput_ops_s": statistics.median(ops / wall for ops, wall, _, _ in run.slices),
        "latency_p50_ms": leg_median(50),
        "latency_p99_ms": leg_median(99),
        "success_ratio": (run.attempted - run.failed) / run.attempted,
        "cpu_ms_per_op": statistics.median(cpu * 1e3 / ops for ops, _, cpu, _ in run.slices),
        "peak_rss_mb": run.hwm_mb,
        "output_bytes_per_op": run.out_bytes / n,
        "setup_s": statistics.median(run.setups),
    }


def per_layer(plan, work, run):
    out_dir = os.path.join(STATE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "%s-seed%d" % (plan["workload"], plan["seed"]))
    nops = min(REPLAY_OPS[plan["workload"]], len(plan["measure"]))
    proc = subprocess.run([PB, "replay", work, str(nops), prefix], check=True,
                          stdout=subprocess.PIPE)
    values = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    log("per-layer table in %s.layers.txt, Chrome trace in %s.trace.json" % (prefix, prefix))
    # What the client saw beyond the same operations run in-process.
    residual_us = end_to_end(run)["latency_p50_ms"] * 1e3 - values["replay.p50_us"]
    if plan["workload"] == "cli-simulate":
        values["cli.process_overhead_ms"] = residual_us / 1e3
    else:
        values["serve.transport_us"] = residual_us
    values.update(run.extra)
    return values


# --- main -----------------------------------------------------------------


def on_alarm(signum, frame):
    raise BenchError("run exceeded its time limit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    work = os.path.join(STATE, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        build()
        # Everything after the build ends well inside the 180 s limit or
        # fails without a result.
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(170)
        plan = generate(args.workload, args.seed, args.seconds, work)
        if args.workload == "cli-simulate":
            run = cli_workload(plan, work)
        else:
            run = serve_workload(plan, args.trace)
        values = per_layer(plan, work, run) if args.trace else end_to_end(run)
        # BENCHMARK.json names the metrics each mode reports, with units.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        # A layer the workload does not run reports 0; every end-to-end
        # metric must have been measured.
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0) if args.trace
                                              else values[m["name"]]),
                               "unit": m["unit"]}
                   for m in declared}
        signal.alarm(0)
    except Exception as e:  # any failure: no result line, non-zero exit
        log("error: %s: %s" % (type(e).__name__, e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log("%s seed %d: %d ops measured, %d failed of %d attempted"
        % (args.workload, args.seed, len(run.latencies()), run.failed, run.attempted))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
