#!/usr/bin/env python3
"""The repository benchmark: one command per workload run, plus a compare mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BEFORE.jsonl AFTER.jsonl

Run from the repository root. The script builds `perfbench` (this
directory's Cargo package) and the shipped `analyze_capture` CLI into
$CARGO_TARGET_DIR (default `.bench_build`), makes the workload's inputs from
the seed, measures for the given seconds, checks every output, and prints a
table followed by one JSON line with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer metrics. Each run is also
appended, stamped with host and build facts, to `.bench_work/results.jsonl`
(or `--out`), which is what `compare` reads. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate_capture", "offline_analyze", "live_monitor")

# The simulated capture: SpeedStep-on 1L/2S/1L/2S (Fig 8/12,
# ext_autointerval). The analysed capture: JDK 1.5 serial GC at WL 14,000
# (Fig 10/11).
SIM = {"scenario": "speedstep_on"}
GC = {"scenario": "gc_jdk15", "users": 14000}

# An untraced run sets up this many times and reports the median set-up
# time, but starts no further set-up once set-up has taken SETUP_BUDGET_S:
# a seed whose simulation stalls (README.md, Findings) must still finish
# well within the 180 s a run may take.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 45.0

# Every timing metric is host time at the host speed this probe time
# stands for. perfbench runs a fixed, program-independent speed probe
# (fill, sort and search a 64 KiB table) between the timed steps of a run,
# and a step's host time t counts as t * PROBE_NOMINAL_S / p, where p is
# the probe time around the step. Other tenants of a shared host slow the
# probe and the program alike, so the ratio cancels their load; a change
# to the program moves t and not p. 0.6 ms is about the probe's median on
# a quiet 2-core Xeon VM.
PROBE_NOMINAL_S = 0.6e-3

# Workload sizes. `full` is the benchmark; `tiny` exists for the
# benchmark's own smoke tests and has no pinned digests.
SIZES = {
    "full": {
        # WL 14,000 with the paper's 30 s warm-up; the measured window is
        # simulated at about 35 capture seconds per host second on a 2-core
        # host.
        "sim": {"users": 14000, "warmup-ms": 30000},
        "sim_seconds_per_s": 35,
        # 40 s of capture, about 1.24 M records.
        "gc": {"warmup-ms": 5000, "duration-ms": 35000},
        # Speed-up of the capture's own clock for the latency replays, well
        # below saturation (about 200x on a 2-core host).
        "reference": 100,
    },
    "tiny": {
        "sim": {"users": 2000, "warmup-ms": 1000},
        "sim_seconds_per_s": 2,
        "gc": {"warmup-ms": 1000, "duration-ms": 3000},
        "reference": 50,
    },
}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def at_nominal(seconds, probe_s):
    """Host time at the nominal host speed (PROBE_NOMINAL_S)."""
    return seconds * PROBE_NOMINAL_S / probe_s


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """Nearest-rank quantile, the rule perfbench uses for verdict latencies."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[round((len(s) - 1) * q)]


class Child:
    """One finished child process: exit code, stdout, wall time, peak RSS."""

    def __init__(self, argv, cwd):
        out_path, err_path = cwd / "child.out", cwd / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            # wait4 reaps the child and reports its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")

    def doc(self):
        """The JSON object a perfbench subcommand prints last, or None."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


class Run:
    """Shared state of one workload run: binaries, work dir, check tally."""

    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        self.size = SIZES[args.scale]
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        self.perfbench = target / "release" / "perfbench"
        self.analyze_capture = target / "release" / "analyze_capture"
        pins = json.loads(Path(args.digests).read_text()) if args.digests else {}
        self.pins = pins.get(args.scale, {}).get(str(args.seed), {})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.repeats = 0
        self.digests = {}
        # Host time spent setting up so far, for SETUP_BUDGET_S.
        self.setup_host_s = 0.0

    def check(self, ok, what):
        """Counts one operation; a failed one is named in the report."""
        self.tally(1, int(not ok), what)
        return ok

    def tally(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what if attempted == 1 else f"{failed} {what}")

    def pin(self, key, digest):
        """Compares a digest with its pinned value for this seed, if any."""
        self.digests[key] = digest
        want = self.pins.get(key)
        if want is not None:
            self.check(digest == want, f"{key} digest {digest[:12]} != pinned {want[:12]}")

    def probe(self):
        """Probe time of the host right now, from a perfbench child."""
        c = self.child([self.perfbench, "probe"])
        doc = c.doc()
        if not self.check(doc is not None, f"speed probe failed: {c.stderr[-300:]}"):
            return PROBE_NOMINAL_S
        return doc["probe_s"]

    def child(self, argv):
        return Child([str(a) for a in argv], self.work)

    def record(self, size, out, trace=False):
        argv = [self.perfbench, "record", "--seed", self.args.seed, "--out", out]
        for k, v in size.items():
            argv += [f"--{k}", v]
        if trace:
            argv += ["--trace", "1"]
        return self.child(argv)

    def analyze_cli(self, capture, verdicts):
        return self.child([self.analyze_capture, capture, "--verdicts", verdicts, "--quiet"])

    def setup_repeats(self, walls):
        """Whether an untraced run should time its set-up once more."""
        return not walls or (not self.args.trace and len(walls) < SETUP_REPEATS
                             and self.setup_host_s < SETUP_BUDGET_S)

    def setup_gc_capture(self):
        """Records the JDK 1.5 capture, repeatedly when untraced; every
        recording of the seed must be byte-identical. Returns its path and
        the host time of each recording."""
        capture = self.work / "gc.fgbdcap"
        walls, digest = [], None
        while self.setup_repeats(walls):
            c = self.record(dict(GC, **self.size["gc"]), capture)
            doc = c.doc()
            if not self.check(doc is not None, f"gc capture recording failed: {c.stderr[-300:]}"):
                return capture, []
            walls.append(at_nominal(c.wall, doc["probe_s"]))
            self.setup_host_s += c.wall
            d = sha256(capture)
            if digest is None:
                digest = d
            else:
                self.check(d == digest, "two recordings of the seed's capture differ")
        self.pin("gc_capture", digest)
        if self.args.corrupt_chunk:
            corrupt(capture)
        return capture, walls


def corrupt(path):
    """Flips one byte in the middle of the file: inside a chunk payload."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


# --- workloads ---------------------------------------------------------------


def simulate_capture(run):
    size = dict(SIM, **run.size["sim"])
    capture = run.work / "sim.fgbdcap"
    # Set-up is the warm-up period at the head of the measured run.
    setups = []
    window_ms = int(run.args.seconds * run.size["sim_seconds_per_s"] * 1000)
    passes = [(False, window_ms)]
    if run.args.trace:
        # Same seed and length untraced and traced, so the windows do the
        # same work and their host times give the tracing overhead.
        passes = [(False, window_ms // 2), (True, window_ms // 2)]
    docs = {}
    for tracing, ms in passes:
        c = run.record(dict(size, **{"duration-ms": ms}), capture, trace=tracing)
        doc = c.doc()
        if not run.check(doc is not None, f"simulation failed: {c.stderr[-300:]}"):
            return
        docs[tracing] = (doc, c)
        if not tracing:
            setups.append(at_nominal(doc["warmup_s"], doc["warmup_probe_s"]))
            run.setup_host_s += doc["warmup_s"]
            run.pin(f"sim_capture_{ms}", sha256(capture))
    # Further set-up samples: the warm-up again, followed by one segment.
    while run.setup_repeats(setups):
        c = run.record(dict(size, **{"duration-ms": 500}), run.work / "warmup.fgbdcap")
        extra = c.doc()
        if not run.check(extra is not None, f"simulation failed: {c.stderr[-300:]}"):
            return
        setups.append(at_nominal(extra["warmup_s"], extra["warmup_probe_s"]))
        run.setup_host_s += extra["warmup_s"]
    doc, child = docs[False]
    w = int(doc["warmup_segments"])
    raw, txns = doc["segment_s"][w:], doc["segment_txns"][w:]
    host = [at_nominal(h, p) for h, p in zip(raw, doc["segment_probe_s"][w:])]
    run.repeats = len(docs)
    run.samples = {
        "setup_s": setups,
        "peak_rss_mib": [child.rss_mib],
        "rate_per_s": [sum(txns) / sum(host)],
        "latency_ms": [h * 1e3 * 1000 / doc["segment_ms"] for h in host],
    }
    run.notes = [
        f"sim_txn_per_s = {sum(txns):.0f} client transactions over {sum(host):.3f} nominal s "
        f"({sum(raw):.3f} host s, {sum(txns) / sum(raw):.0f} txn/s unscaled, median probe "
        f"{doc['probe_s'] * 1e3:.3f} ms) of a {window_ms / 1000:.0f} s measured window",
        f"latency = nominal host ms per simulated second, n={len(host)} segments of "
        f"{doc['segment_ms']:.0f} ms of one run",
        f"set-up = nominal host time to simulate the {size['warmup-ms'] / 1000:.0f} s warm-up, "
        f"n={len(setups)}",
        f"the tap's record-check hash costs about {doc['check_hash_s']:.3f} s over "
        f"{doc['records']:.0f} records (timed on the read-back, which hashes the same records)",
    ]
    if True in docs:
        traced = docs[True][0]
        layers = {k: v for k, v in traced.items() if k in layer_names(run.spec)}
        # Both windows scaled to the nominal host speed, so that a slower
        # host during one of them does not count as tracing overhead.
        layers["trace_overhead_ratio"] = sum(
            at_nominal(h, p) for h, p in zip(traced["segment_s"][w:], traced["segment_probe_s"][w:])
        ) / sum(host)
        # The remainder is the tap's own bookkeeping (check hash, segment
        # stamps, clock reads) and the file set-up around the call.
        layers["trace_remainder_ratio"] = remainder(
            [traced], ["ntier.run_self_s", "trace.capture2.write_s"]
        )
        run.layers = layers
        run.notes.append(
            f"traced: tap closure {traced['tap_s']:.3f} s, of which writer "
            f"{traced['trace.capture2.write_s']:.3f} s"
        )


def offline_analyze(run):
    capture, setups = run.setup_gc_capture()
    verdicts = run.work / "cli.verdicts.jsonl"
    walls, rss, digests = [], [], []
    # The library twin of the CLI's engine, run without (False) and with
    # (True) its layer spans timed, for the tracing overhead.
    twins = {False: [], True: []}
    deadline = time.perf_counter() + run.args.seconds
    probe = run.probe()
    while not walls or time.perf_counter() < deadline:
        if run.args.trace and len(walls) > len(twins[True]):
            for tracing in (False, True):
                doc = twin_analyze(run, capture, digests[0], tracing)
                if doc is not None:
                    twins[tracing].append(doc)
            continue
        c = run.analyze_cli(capture, verdicts)
        if not run.check(c.code == 0, f"analyze_capture exit {c.code}: {c.stderr[-300:]}"):
            break
        digest = sha256(verdicts)
        run.check(not digests or digest == digests[0], "CLI verdicts differ between runs")
        digests.append(digest)
        # The probe time around this CLI run: the mean of the probes just
        # before and just after it.
        after = run.probe()
        walls.append(at_nominal(c.wall, 0.5 * (probe + after)) * 1e3)
        probe = after
        rss.append(c.rss_mib)
    records = 0
    if digests:
        run.pin("verdicts", digests[0])
        # The paper's GC signature: a Tomcat must show frozen (POI)
        # intervals.
        doc = twin_analyze(run, capture, digests[0], False)
        if doc is not None:
            run.check(doc["tomcat_frozen_intervals"] > 0, "no frozen (POI) interval on a Tomcat")
            records = doc["records"]
    rates = [records / (w / 1e3) for w in walls]
    run.repeats = len(walls)
    run.samples = {
        "setup_s": setups,
        "peak_rss_mib": rss,
        "rate_per_s": rates,
        "latency_ms": walls,
    }
    run.notes = [
        f"analyze_records_per_s = {records} capture records / CLI wall, n={len(walls)} runs",
        "latency = median wall ms of one analyze_capture run, file to verdicts, at nominal host speed",
    ]
    traced = twins[True]
    if traced and twins[False]:
        layers = median_layers(traced)
        layers["trace_overhead_ratio"] = (
            median([d["total_s"] for d in traced]) / median([d["total_s"] for d in twins[False]])
        )
        layers["trace_remainder_ratio"] = remainder(
            traced,
            [
                "trace.capture2.decode_s",
                "trace.reconstruct_s",
                "trace.servicetime_s",
                "trace.span.extract_s",
                "core.series_s",
                "core.nstar_s",
                "core.detect_s",
            ],
        )
        run.layers = layers


def twin_analyze(run, capture, cli_digest, tracing):
    """Runs the library twin of the CLI's engine; its verdicts must equal
    the CLI's byte for byte (the engine cross-check). Returns its JSON."""
    twin = run.work / "twin.verdicts.jsonl"
    argv = [run.perfbench, "analyze", "--capture", capture, "--verdicts", twin]
    c = run.child(argv + (["--trace", "1"] if tracing else []))
    doc = c.doc()
    if not run.check(doc is not None, f"library analysis failed: {c.stderr[-300:]}"):
        return None
    run.check(sha256(twin) == cli_digest, "library engine verdicts != CLI verdicts")
    return doc


def live_monitor(run):
    size = run.size
    capture, records_s = run.setup_gc_capture()
    verdicts = run.work / "live.verdicts.jsonl"
    events = run.work / "live.events.jsonl"
    argv = [
        run.perfbench, "live", "--capture", capture, "--seconds", run.args.seconds,
        "--reference", size["reference"], "--verdicts", verdicts, "--events", events,
    ]
    if run.args.trace:
        argv += ["--trace", "1"]
    c = run.child(argv)
    doc = c.doc()
    if not run.check(doc is not None, f"live replay failed: {c.stderr[-300:]}"):
        run.samples = {}
        run.notes = []
        return
    # Every replay after the first is one operation (its verdict stream must
    # equal the first replay's), and so is every verdict at the reference
    # speed-up (it must arrive within the latency limit).
    run.tally(int(doc["replays"]) - 1, int(doc["event_mismatches"]),
              "replays emitted different live verdicts")
    run.tally(int(doc["verdicts"]), int(doc["verdicts_over_limit"]),
              f"verdicts later than {doc['limit_ms']:.0f} ms")
    run.check(doc["tomcat_frozen_intervals"] > 0, "no frozen (POI) interval on a Tomcat")
    live_digest = sha256(verdicts)
    run.pin("verdicts", live_digest)
    run.pin("live_events", sha256(events))
    cli_verdicts = run.work / "cli.verdicts.jsonl"
    cli = run.analyze_cli(capture, cli_verdicts)
    if run.check(cli.code == 0, f"analyze_capture exit {cli.code}: {cli.stderr[-300:]}"):
        run.check(sha256(cli_verdicts) == live_digest, "live final verdicts != offline verdicts")

    rate = doc["records"] / doc["capture_seconds"]
    lat = doc["latencies_ms"]
    setups = [rec + at_nominal(cal, p)
              for rec, cal, p in zip(records_s, doc["setup_s"], doc["setup_probe_s"])]
    # A rate is work over time, so it scales by the inverse.
    rates = [r / at_nominal(1.0, p) for r, p in zip(doc["saturated_rates"], doc["saturated_probe_s"])]
    run.repeats = int(doc["replays"])
    run.samples = {
        "setup_s": setups,
        "peak_rss_mib": [c.rss_mib],
        "rate_per_s": rates,
        "latency_ms": [at_nominal(ms, p) for ms, p in
                       zip(doc["chunk_late_p50_ms"], doc["reference_probe_s"])],
    }
    run.notes = [
        f"capture clock: {rate:.0f} records/s; reference speed-up {size['reference']}x, "
        f"{doc['reference_replays']} replays",
        f"latency = lateness (due -> pushed) of each decoded chunk's latest record, median "
        f"over the chunks of a replay, median over {len(doc['chunk_late_p50_ms'])} replays",
        f"record latency (due -> pushed) over {int(doc['record_latencies'])} records: pooled p50 "
        f"{doc['record_late_p50_ms']:.4f} ms, per-replay p99 median "
        f"{median(doc['record_late_p99_ms']):.4f} ms (host time, unscaled)",
        f"monitor_verdict_p50_ms {nearest_rank(lat, 0.5):.4f}, monitor_verdict_p99_ms "
        f"{nearest_rank(lat, 0.99):.4f} (from the trigger record's due time, n={len(lat)} verdicts)",
    ]
    if rates:
        run.notes.append(
            f"monitor_max_rate_rps = records / wall of a saturated replay (every record due at "
            f"once), n={len(rates)} replays; {median(doc['saturated_rates']) / rate:.0f}x the "
            f"capture clock unscaled"
        )
    if run.args.trace:
        run.layers = {k: v for k, v in doc.items() if k in layer_names(run.spec)}


def median_layers(docs):
    names = {k for d in docs for k in d}
    return {k: median([d[k] for d in docs if k in d]) for k in names}


def remainder(docs, parts):
    """Share of the traced wall time no layer span accounts for."""
    shares = [(d["total_s"] - sum(d[p] for p in parts)) / d["total_s"] for d in docs]
    return median(shares)


def layer_names(spec):
    return {m["name"] for m in spec["per_layer"]}


# --- reporting ---------------------------------------------------------------


def stamp(args, repeats):
    def output(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""

    return {
        "available_parallelism": len(os.sched_getaffinity(0)),
        "build_profile": "release",
        "git_rev": output(["git", "rev-parse", "HEAD"]) or "unknown",
        "rustc": output(["rustc", "--version"]) or "unknown",
        "seed": args.seed,
        "repeats": repeats,
        "scale": args.scale,
    }


def report(args, spec, run):
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    metrics, table = {}, []
    if args.trace:
        layers = getattr(run, "layers", {})
        for m in spec["per_layer"]:
            value = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            table.append(f"  {m['name']:<40} {value:>16.6g} {m['unit']}")
    else:
        for name, m in e2e.items():
            samples = run.samples.get(name, [])
            value = median(samples)
            metrics[name] = {"value": value, "unit": m["unit"]}
            table.append(f"  {name:<40} {value:>16.6g} {m['unit']:<6} n={len(samples)}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    correct = run.failed == 0 and run.attempted > 0 and all(
        metrics[m]["value"] > 0 for m in e2e if not args.trace
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in getattr(run, "notes", []):
        print(f"  # {note}")
    print("\n".join(table))
    print(f"  error_rate = {run.failed}/{run.attempted} = {error_rate:.6g}")
    for p in run.problems[:20]:
        print(f"  FAILED: {p}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace, samples=run.samples,
                  digests=run.digests, stamp=stamp(args, run.repeats))
    out = Path(args.out) if args.out else ROOT / ".bench_work" / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


# --- compare -----------------------------------------------------------------


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(xs):
    """First quartile, median and third quartile, by the acceptance rule."""
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def values(records, workload, traced, name):
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload and bool(r["trace"]) == traced and name in r["metrics"]]


def compare(before_path, after_path, spec):
    before, after = load(before_path), load(after_path)
    cores = {r["stamp"]["available_parallelism"] for r in before + after}
    if len(cores) > 1:
        print(f"refusing to compare results taken on different core counts: {sorted(cores)}")
        return 2
    fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
    print(f"{'workload':<18} {'metric':<14} {'before q1/med/q3':>32} {'after q1/med/q3':>32}"
          f" {'ratio':>7}  verdict")
    for wl in WORKLOADS:
        for m in spec["end_to_end"]:
            a, b = (values(side, wl, False, m["name"]) for side in (before, after))
            if len(a) < 2 or len(b) < 2:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("inf")
            # Run-to-run spread: quartile distance as a share of the median.
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{wl:<18} {m['name']:<14} {fmt(qa):>32} {fmt(qb):>32} {ratio:>7.3f}  {verdict}")
    print("\nper-layer self times (traced runs, medians):")
    for wl in WORKLOADS:
        for m in spec["per_layer"]:
            if m["unit"] != "s":
                continue
            a, b = (values(side, wl, True, m["name"]) for side in (before, after))
            if not a or not b or median(a) == median(b) == 0:
                continue
            print(f"{wl:<18} {m['name']:<34} {median(a):>12.6g} s -> {median(b):>12.6g} s"
                  f"  delta {median(b) - median(a):+.6g} s")
    return 0


# --- entry -------------------------------------------------------------------


def build():
    """Builds both binaries; cargo's own output goes to stderr."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    for argv in (
        ["cargo", "build", "--release", "--manifest-path", str(HERE / "Cargo.toml")],
        ["cargo", "build", "--release", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "fgbd-repro", "--bin", "analyze_capture"],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BEFORE.jsonl AFTER.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="results file to append to (default .bench_work/results.jsonl)")
    p.add_argument("--scale", choices=sorted(SIZES), default="full")
    p.add_argument("--digests", default=str(HERE / "digests.json"),
                   help="pinned digests per scale and seed ('' to pin nothing)")
    p.add_argument("--corrupt-chunk", action="store_true",
                   help="damage the recorded capture after set-up (negative test)")
    args = p.parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = Run(args, spec)
    try:
        {"simulate_capture": simulate_capture, "offline_analyze": offline_analyze,
         "live_monitor": live_monitor}[args.workload](run)
        report(args, spec, run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
