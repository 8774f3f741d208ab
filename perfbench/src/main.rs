//! Measuring binary of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and runs each phase of a workload
//! as its own child process, so that a child's peak RSS belongs to one
//! phase. Every subcommand prints one JSON object as its last line of
//! standard output; run.py turns those into the benchmark's metrics.
//!
//! ```text
//! perfbench record  --scenario S --users U --warmup-ms W --duration-ms D
//!                   --seed N --out CAPTURE [--trace 1]
//! perfbench analyze --capture CAPTURE --verdicts OUT [--trace 1]
//! perfbench live    --capture CAPTURE --seconds S --reference X
//!                   --verdicts OUT --events OUT [--trace 1]
//! perfbench probe
//! ```
//!
//! * `record` simulates one run of the 1L/2S/1L/2S topology and streams
//!   its capture through `NTierSystem::run_with_record_tap` into an
//!   `FGBDCAP2` `ChunkedWriter`, stamping the host time at every 500 ms of
//!   capture time and running the speed probe at every fourth stamp. With
//!   `--trace 1` the tap closure and the writer call in it are timed, which
//!   splits the call into simulator self time, tap time and writer time.
//! * `analyze` is the twin of the `analyze_capture` CLI's default engine:
//!   the same library calls (decode, prefix calibration, span extraction,
//!   series, N\*, classification), each timed under `--trace 1`, ending in
//!   the same verdict file, which run.py compares byte for byte with the
//!   CLI's.
//! * `live` calibrates on the capture prefix (set-up, timed apart), then
//!   replays the capture open-loop through a projected `ChunkCursor` into
//!   an `OnlineDetector`, alternating replays at the reference speed-up,
//!   which time every record and every onset/clear verdict from when its
//!   (triggering) record was due, with saturated replays, in which every
//!   record is due at once, for the highest sustained rate. The speed probe
//!   runs between replays.
//! * `probe` times the speed probe: a fixed, program-independent piece of
//!   work whose host time says how fast the host is running right now.
//!   run.py scales every timing metric by it (see `PROBE_NOMINAL_S`).

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fgbd_core::detect::{classify, fit_mainseq, DetectorConfig, IntervalState};
use fgbd_core::nstar::NStar;
use fgbd_core::online::{MonitorEvent, OnlineConfig, OnlineDetector, VerdictKind};
use fgbd_core::series::{SeriesSet, Window};
use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::system::{node_metas, NTierSystem};
use fgbd_obsv::json::Json;
use fgbd_obsv::jsonl::JsonlWriter;
use fgbd_repro::monitor::verdict_lines;
use fgbd_repro::pipeline::{
    calib_records_from_env, Calibration, SERVICE_QUANTILE, WORK_UNIT_RESOLUTION,
};
use fgbd_trace::reconstruct::{Heuristic, Reconstruction};
use fgbd_trace::servicetime::ServiceTimeTable;
use fgbd_trace::{
    read_capture_file, ChunkCursor, ChunkedWriter, MsgRecord, NodeKind, NodeMeta, Projection,
    SpanSet, TraceLog,
};

/// The paper's fine analysis granularity, the CLI default.
const INTERVAL: SimDuration = SimDuration::from_millis(50);

/// Capture time between two host-time stamps of a simulation.
const SEGMENT_US: u64 = 500_000;

/// The verdict latency limit: one paper interval.
const LIMIT_MS: f64 = 50.0;

/// A simulation runs the speed probe at every this many segment boundaries.
const PROBE_EVERY: usize = 4;

/// A segment's probe time is the median of the probes this many either
/// side of it.
const PROBE_WINDOW: usize = 7;

/// A probe outside a simulation is the median of this many probe runs.
const PROBE_REPEATS: usize = 9;

/// The live generator re-reads the clock at least every this many records.
const CLOCK_EVERY: usize = 64;

type Result<T> = std::result::Result<T, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(cmd @ ("record" | "analyze" | "live" | "probe")) => {
            Opts::parse(&args[1..]).and_then(|o| match cmd {
                "record" => record(&o),
                "analyze" => analyze(&o),
                "probe" => probe(&o),
                _ => live(&o),
            })
        }
        _ => Err("usage: perfbench record|analyze|live|probe --key value ...".into()),
    };
    match outcome {
        Ok(doc) => {
            println!("{}", Json::Obj(doc).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {key}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn str(&self, key: &str) -> Result<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key} is not a number"))
    }

    fn traced(&self) -> bool {
        self.0.get("trace").is_some_and(|v| v == "1")
    }
}

type Doc = Vec<(String, Json)>;

fn put(doc: &mut Doc, key: &str, value: f64) {
    doc.push((key.to_string(), Json::Num(value)));
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f`, adding its host time to `acc` when `traced`.
fn span<T>(traced: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Process-wide `fgbd_obsv` counter deltas over a closure — the DES and
/// N\* counters are flushed once per call, so the deltas are exact.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let before = fgbd_obsv::metrics::snapshot();
    let out = f();
    let delta = fgbd_obsv::metrics::snapshot().delta(&before);
    (out, delta.counters)
}

fn count(counters: &BTreeMap<String, u64>, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// A fixed piece of program-independent work: fill, sort and search a
/// 64 KiB table. Its host time measures how fast the host runs this
/// process right now.
fn speed_probe() -> u64 {
    const N: usize = 16 * 1024;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u32> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    let mut hits = 0u64;
    for k in 0..N as u32 {
        hits += u64::from(v.binary_search(&k.wrapping_mul(0x9e37_79b9)).is_ok());
    }
    hits ^ u64::from(v[N / 2])
}

/// The median host time of `PROBE_REPEATS` speed probes, in seconds.
fn probe_now() -> f64 {
    let mut times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(speed_probe());
            secs(t.elapsed())
        })
        .collect();
    median(&mut times)
}

/// Probes the host between the timed steps of a run: each step's probe
/// time is the mean of the probes just before and just after it.
struct Prober {
    last: f64,
}

impl Prober {
    fn new() -> Self {
        Prober { last: probe_now() }
    }

    /// Probes now and returns the probe time of the step that just ended.
    fn around(&mut self) -> f64 {
        let now = probe_now();
        let step = 0.5 * (self.last + now);
        self.last = now;
        step
    }
}

fn probe(_: &Opts) -> Result<Doc> {
    let mut doc = Doc::new();
    put(&mut doc, "probe_s", probe_now());
    Ok(doc)
}

// --- record ------------------------------------------------------------------

/// What the tap hands back when the simulator drops it.
struct Tapped {
    records: u64,
    /// Word-wise FNV-1a over every record's fields, checked against a
    /// read-back.
    hash: u64,
    /// Time spent in the whole tap closure (traced only, plus `finish`).
    tap: Duration,
    /// Time spent in `ChunkedWriter::push` (traced only, plus `finish`).
    write: Duration,
    /// Host time since the run started at which the first record at or
    /// after each segment boundary (`k * SEGMENT_US` of capture time)
    /// arrived.
    stamps: Vec<Duration>,
    /// Host time of each speed probe, one at every `PROBE_EVERY`-th
    /// segment boundary; excluded from `stamps`.
    probes: Vec<Duration>,
}

/// The record tap: owns the `ChunkedWriter` and finishes it when the
/// simulator drops the tap at the end of the run, reporting through `done`.
struct TapWriter {
    writer: Option<ChunkedWriter<BufWriter<File>>>,
    error: Option<String>,
    traced: bool,
    t0: Instant,
    probed: Duration,
    next_boundary_us: u64,
    out: Tapped,
    done: mpsc::Sender<Result<Tapped>>,
}

impl TapWriter {
    fn push(&mut self, rec: MsgRecord) {
        let t_tap = self.traced.then(Instant::now);
        while rec.at.as_micros() >= self.next_boundary_us {
            self.out.stamps.push(self.t0.elapsed() - self.probed);
            if self.out.stamps.len() % PROBE_EVERY == 1 {
                let t = Instant::now();
                std::hint::black_box(speed_probe());
                let p = t.elapsed();
                self.out.probes.push(p);
                self.probed += p;
            }
            self.next_boundary_us += SEGMENT_US;
        }
        self.out.records += 1;
        self.out.hash = record_hash(self.out.hash, &rec);
        if let Some(w) = self.writer.as_mut() {
            let t_write = self.traced.then(Instant::now);
            if let Err(e) = w.push(rec) {
                self.error = Some(format!("capture write: {e}"));
                self.writer = None;
            }
            if let (Some(t_tap), Some(t_write)) = (t_tap, t_write) {
                let end = Instant::now();
                self.out.tap += end - t_tap;
                self.out.write += end - t_write;
                return;
            }
        }
        if let Some(t) = t_tap {
            self.out.tap += t.elapsed();
        }
    }
}

impl Drop for TapWriter {
    fn drop(&mut self) {
        let t = Instant::now();
        let res = match (self.error.take(), self.writer.take()) {
            (Some(e), _) => Err(e),
            (None, Some(w)) => w
                .finish()
                .map_err(|e| format!("capture finish: {e}"))
                .and_then(|bw| bw.into_inner().map_err(|e| format!("capture flush: {e}")))
                .map(drop),
            (None, None) => Err("capture writer missing".into()),
        };
        let finish = t.elapsed();
        let out = Tapped {
            records: self.out.records,
            hash: self.out.hash,
            tap: self.out.tap + finish,
            write: self.out.write + finish,
            stamps: std::mem::take(&mut self.out.stamps),
            probes: std::mem::take(&mut self.out.probes),
        };
        let _ = self.done.send(res.map(|()| out));
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the record's fields taken as whole 64-bit words: seven
/// multiply steps per record, cheap enough for the simulate thread.
fn record_hash(mut h: u64, rec: &MsgRecord) -> u64 {
    let words = [
        rec.at.as_micros(),
        u64::from(rec.src.0),
        u64::from(rec.dst.0),
        rec.kind as u64,
        u64::from(rec.conn.0),
        u64::from(rec.class.0),
        u64::from(rec.bytes),
    ];
    for w in words {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Reads the capture back through a full-column `ChunkCursor`: the writer
/// is correct when every record decodes to exactly what the tap received.
/// Returns the count, the hash and the host time spent hashing, which is
/// what the same hash costs the tap.
fn read_back(path: &str) -> Result<(u64, u64, Duration)> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut cursor = ChunkCursor::new(&bytes).map_err(|e| format!("open {path}: {e}"))?;
    let (mut n, mut h, mut hashing) = (0u64, FNV_OFFSET, Duration::ZERO);
    let mut buf = Vec::new();
    while cursor
        .next_chunk(&mut buf)
        .map_err(|e| format!("decode {path}: {e}"))?
    {
        n += buf.len() as u64;
        h = span(true, &mut hashing, || buf.iter().fold(h, record_hash));
    }
    Ok((n, h, hashing))
}

fn record(o: &Opts) -> Result<Doc> {
    let t_all = Instant::now();
    let (jdk, speedstep) = match o.str("scenario")? {
        "speedstep_on" => (Jdk::Jdk16, true),
        "gc_jdk15" => (Jdk::Jdk15, false),
        other => return Err(format!("unknown scenario {other}")),
    };
    let mut cfg = SystemConfig::paper_1l2s1l2s(o.num("users")?, jdk, speedstep, o.num("seed")?);
    cfg.warmup = SimDuration::from_millis(o.num("warmup-ms")?);
    cfg.duration = SimDuration::from_millis(o.num("duration-ms")?);
    if !cfg.warmup.as_micros().is_multiple_of(SEGMENT_US) {
        return Err("--warmup-ms must be a multiple of the 500 ms segment".into());
    }
    let out = o.str("out")?;
    let traced = o.traced();

    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let writer = ChunkedWriter::new(BufWriter::new(file), &node_metas(&cfg))
        .map_err(|e| format!("capture header: {e}"))?;
    let (done, finished) = mpsc::channel();
    let t0 = Instant::now();
    let mut tap = TapWriter {
        writer: Some(writer),
        error: None,
        traced,
        t0,
        probed: Duration::ZERO,
        next_boundary_us: 0,
        out: Tapped {
            records: 0,
            hash: FNV_OFFSET,
            tap: Duration::ZERO,
            write: Duration::ZERO,
            stamps: Vec::new(),
            probes: Vec::new(),
        },
        done,
    };
    let warmup_us = cfg.warmup.as_micros();
    let (run, counters) =
        counted(|| NTierSystem::run_with_record_tap(cfg, move |rec| tap.push(rec)));
    let wall = t0.elapsed();
    let tapped = finished
        .recv()
        .map_err(|_| "record tap never finished".to_string())??;
    let total = t_all.elapsed();
    if !run.log.records.is_empty() {
        return Err("records bypassed the record tap".into());
    }
    let (read_n, read_hash, hashing) = read_back(out)?;
    if (read_n, read_hash) != (tapped.records, tapped.hash) {
        return Err(format!(
            "capture read-back mismatch: {read_n} records decoded, {} written",
            tapped.records
        ));
    }

    // Whole segments only: segment k spans capture time [k, k+1) * segment
    // and took stamps[k+1] - stamps[k] of host time.
    let segments = tapped.stamps.len().saturating_sub(1);
    let mut seg_txns = vec![0.0; segments];
    for t in &run.txns {
        if let Some(c) = seg_txns.get_mut((t.finished.as_micros() / SEGMENT_US) as usize) {
            *c += 1.0;
        }
    }
    let seg_host: Vec<f64> = tapped
        .stamps
        .windows(2)
        .map(|w| secs(w[1] - w[0]))
        .collect();
    let warmup_segments = (warmup_us / SEGMENT_US) as usize;
    let warmup_host = tapped
        .stamps
        .get(warmup_segments)
        .map_or(wall, |&s| s + (t0 - t_all));

    let nums = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
    let mut doc = Doc::new();
    put(&mut doc, "total_s", secs(total));
    put(&mut doc, "warmup_s", secs(warmup_host));
    put(&mut doc, "warmup_segments", warmup_segments as f64);
    put(&mut doc, "segment_ms", (SEGMENT_US / 1000) as f64);
    put(&mut doc, "records", tapped.records as f64);
    put(&mut doc, "check_hash_s", secs(hashing));
    doc.push(("segment_s".into(), nums(seg_host)));
    doc.push(("segment_txns".into(), nums(seg_txns)));
    // Each segment's probe time: the median of the probes run within
    // PROBE_WINDOW probes of it, so it follows the host's speed over about
    // a second of host time without following any single probe's jitter.
    let probes: Vec<f64> = tapped.probes.iter().copied().map(secs).collect();
    let around = |j: usize| {
        let lo = j.saturating_sub(PROBE_WINDOW);
        let hi = (j + PROBE_WINDOW + 1).min(probes.len());
        median(&mut probes[lo.min(hi)..hi].to_vec())
    };
    let seg_probe = (0..segments).map(|k| around(k / PROBE_EVERY)).collect();
    let warmup_probes = warmup_segments
        .div_ceil(PROBE_EVERY)
        .max(1)
        .min(probes.len());
    put(
        &mut doc,
        "warmup_probe_s",
        median(&mut probes[..warmup_probes].to_vec()),
    );
    put(&mut doc, "probe_s", median(&mut probes.clone()));
    doc.push(("segment_probe_s".into(), nums(seg_probe)));
    if traced {
        let bytes = std::fs::metadata(out).map_err(|e| e.to_string())?.len();
        let events = count(&counters, "des.events");
        let write = tapped.write;
        put(
            &mut doc,
            "ntier.run_self_s",
            secs(wall.saturating_sub(tapped.tap)),
        );
        put(&mut doc, "tap_s", secs(tapped.tap));
        put(&mut doc, "des.events", events);
        put(&mut doc, "des.events_per_s", ratio(events, secs(wall)));
        put(
            &mut doc,
            "des.cpu_done_stale_ratio",
            ratio(count(&counters, "des.cpu_done_stale"), events),
        );
        put(
            &mut doc,
            "des.wheel_cascades_per_event",
            ratio(count(&counters, "des.wheel_cascades"), events),
        );
        put(&mut doc, "trace.capture2.write_s", secs(write));
        put(
            &mut doc,
            "trace.capture2.write_records_per_s",
            ratio(tapped.records as f64, secs(write)),
        );
        put(
            &mut doc,
            "trace.capture2.bytes_per_record",
            ratio(bytes as f64, tapped.records as f64),
        );
    }
    Ok(doc)
}

// --- analyze (traced offline engine) -------------------------------------------

/// Renders final verdict lines exactly as `analyze_capture --verdicts`
/// does, so the two files can be compared byte for byte.
struct VerdictView<'a> {
    name: &'a str,
    loads: &'a [f64],
    rates: &'a [f64],
    states: &'a [IntervalState],
    nstar: Option<&'a NStar>,
}

fn write_verdicts(path: &str, window: Window, views: &[VerdictView]) -> Result<()> {
    let mut w = JsonlWriter::create(path).map_err(|e| format!("create {path}: {e}"))?;
    for v in views {
        for line in verdict_lines(v.name, window, v.loads, v.rates, v.states, v.nstar) {
            w.write(&line).map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    Ok(())
}

fn frozen_tomcat_intervals(name: &str, states: &[IntervalState]) -> usize {
    if !name.starts_with("tomcat") {
        return 0;
    }
    states
        .iter()
        .filter(|s| matches!(s, IntervalState::Frozen))
        .count()
}

fn analyze(o: &Opts) -> Result<Doc> {
    let path = o.str("capture")?;
    let verdicts = o.str("verdicts")?;
    let traced = o.traced();
    let cfg = DetectorConfig::default();
    let t_all = Instant::now();

    let mut decode = Duration::ZERO;
    let log = span(traced, &mut decode, || read_capture_file(Path::new(path)))
        .map_err(|e| format!("decode {path}: {e}"))?;
    let records = log.records.len();
    let (Some(first), Some(last)) = (log.records.first(), log.records.last()) else {
        return Err("empty capture".into());
    };
    let window = Window::new(first.at, last.at, INTERVAL);

    // Calibration over the bounded prefix, as `Calibration::from_capture_prefix`.
    let prefix_len = records.min(calib_records_from_env());
    let mut prefix = TraceLog::new(log.nodes.clone());
    prefix.records = log.records[..prefix_len].to_vec();
    let mut reconstruct = Duration::ZERO;
    let rec = span(traced, &mut reconstruct, || {
        Reconstruction::run(&prefix, Heuristic::ProfileGuided)
    });
    drop(prefix);
    let servers: Vec<&NodeMeta> = log
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::Server)
        .collect();
    let mut servicetime = Duration::ZERO;
    let (services, work_units) = span(traced, &mut servicetime, || {
        let services = ServiceTimeTable::approximate(&rec, SERVICE_QUANTILE);
        let work_units: Vec<SimDuration> = servers
            .iter()
            .map(|n| {
                services
                    .work_unit(n.id, WORK_UNIT_RESOLUTION)
                    .unwrap_or(WORK_UNIT_RESOLUTION)
            })
            .collect();
        (services, work_units)
    });
    drop(rec);

    let mut extract = Duration::ZERO;
    let spans = span(traced, &mut extract, || SpanSet::extract(&log));

    struct Out {
        name: String,
        loads: Vec<f64>,
        rates: Vec<f64>,
        states: Vec<IntervalState>,
        nstar: Option<NStar>,
    }
    let (mut series, mut nstar_t, mut detect) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut intervals = 0usize;
    let (outs, counters) = counted(|| {
        let mut outs = Vec::new();
        for (meta, &wu) in servers.iter().zip(&work_units) {
            let server_spans = spans.server(meta.id);
            if server_spans.is_empty() {
                continue;
            }
            let (load, rates) = span(traced, &mut series, || {
                let set = SeriesSet::from_spans(server_spans, window, &services, wu);
                let (load, tput) = (set.load(), set.tput());
                let rates = tput.unit_rates();
                (load, rates)
            });
            intervals += load.len();
            let nstar = span(traced, &mut nstar_t, || {
                fit_mainseq(load.values(), &rates, &cfg)
            });
            let states = span(traced, &mut detect, || {
                classify(&load, &rates, nstar.as_ref(), &cfg)
            });
            outs.push(Out {
                name: meta.name.clone(),
                loads: load.values().to_vec(),
                rates,
                states,
                nstar,
            });
        }
        outs
    });
    let views: Vec<VerdictView> = outs
        .iter()
        .map(|v| VerdictView {
            name: &v.name,
            loads: &v.loads,
            rates: &v.rates,
            states: &v.states,
            nstar: v.nstar.as_ref(),
        })
        .collect();
    write_verdicts(verdicts, window, &views)?;
    let wall = t_all.elapsed();
    let frozen: usize = outs
        .iter()
        .map(|v| frozen_tomcat_intervals(&v.name, &v.states))
        .sum();

    let mut doc = Doc::new();
    put(&mut doc, "total_s", secs(wall));
    put(&mut doc, "records", records as f64);
    put(&mut doc, "tomcat_frozen_intervals", frozen as f64);
    if !traced {
        return Ok(doc);
    }
    put(&mut doc, "trace.capture2.decode_s", secs(decode));
    put(
        &mut doc,
        "trace.capture2.decode_records_per_s",
        ratio(records as f64, secs(decode)),
    );
    put(&mut doc, "trace.reconstruct_s", secs(reconstruct));
    put(
        &mut doc,
        "trace.reconstruct_records_per_s",
        ratio(prefix_len as f64, secs(reconstruct)),
    );
    put(&mut doc, "trace.servicetime_s", secs(servicetime));
    put(&mut doc, "trace.span.extract_s", secs(extract));
    put(
        &mut doc,
        "trace.span.extract_spans_per_s",
        ratio(spans.len() as f64, secs(extract)),
    );
    put(&mut doc, "core.series_s", secs(series));
    put(
        &mut doc,
        "core.series_intervals_per_s",
        ratio(intervals as f64, secs(series)),
    );
    put(&mut doc, "core.nstar_s", secs(nstar_t));
    put(
        &mut doc,
        "core.nstar.no_knee_ratio",
        ratio(
            count(&counters, "nstar.no_knee"),
            count(&counters, "nstar.fits"),
        ),
    );
    put(&mut doc, "core.detect_s", secs(detect));
    Ok(doc)
}

// --- live ----------------------------------------------------------------------

/// Record lateness histogram: 1 µs bins up to 100 ms, then one overflow bin.
struct Lateness(Vec<u64>);

impl Default for Lateness {
    fn default() -> Self {
        Lateness(vec![0; 100_001])
    }
}

impl Lateness {
    fn record(&mut self, late_s: f64) {
        let bin = ((late_s * 1e6) as usize).min(self.0.len() - 1);
        self.0[bin] += 1;
    }

    fn merge(&mut self, other: &Lateness) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile in ms, at 1 µs resolution.
    fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((n - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (us, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen > rank {
                return us as f64 * 1e-3;
            }
        }
        unreachable!("rank below the total count")
    }

    fn max_ms(&self) -> f64 {
        self.0.iter().rposition(|&c| c > 0).unwrap_or(0) as f64 * 1e-3
    }
}

/// What one open-loop replay of the capture measured.
struct Replay {
    /// Host time of the whole replay.
    wall: Duration,
    /// Time the generator spent waiting for records to fall due.
    idle: Duration,
    /// Verdict latencies in ms, each from its triggering record's due time.
    latencies: Vec<f64>,
    /// How long after its due time each record was pushed.
    lateness: Lateness,
    /// Per decoded chunk, how late its latest record was pushed, in ms.
    chunk_late_ms: Vec<f64>,
    /// Live onset/clear verdicts in stream order.
    events: Vec<MonitorEvent>,
    /// Time in `ChunkCursor::next_chunk` (traced only).
    cursor: Duration,
    /// Time in `OnlineDetector::push` and `drain_events` (traced only).
    push: Duration,
    records: u64,
    state_bytes: usize,
    nstar_fits: f64,
}

/// The calibrated capture the replays share.
struct Live<'a> {
    bytes: &'a [u8],
    nodes: Vec<NodeMeta>,
    cal: Calibration,
    start: SimTime,
    end: SimTime,
}

impl Live<'_> {
    fn detector(&self) -> OnlineDetector {
        let mut det = OnlineDetector::new(
            OnlineConfig::new(self.start, INTERVAL, WORK_UNIT_RESOLUTION),
            self.cal.services.clone(),
        );
        for (&node, &wu) in &self.cal.work_units {
            det.set_work_unit(node, wu);
        }
        det
    }

    /// Replays the capture at `speedup` times its own clock. Records are
    /// due at `(at - start) / speedup` host seconds after the replay
    /// starts; whenever the generator reads the clock it pushes every
    /// record already due, so a stall delays the records behind it instead
    /// of thinning the offered load.
    fn replay(&self, speedup: f64, traced: bool) -> Result<(Replay, OnlineDetector)> {
        let mut det = self.detector();
        let mut cursor = ChunkCursor::new(self.bytes)
            .map_err(|e| format!("open capture: {e}"))?
            .with_projection(Projection::DETECT);
        let base = self.start.as_micros();
        let per_us = 1e-6 / speedup;
        let due = |rec: &MsgRecord| (rec.at.as_micros() - base) as f64 * per_us;
        let mut r = Replay {
            wall: Duration::ZERO,
            idle: Duration::ZERO,
            latencies: Vec::new(),
            lateness: Lateness::default(),
            chunk_late_ms: Vec::new(),
            events: Vec::new(),
            cursor: Duration::ZERO,
            push: Duration::ZERO,
            records: 0,
            state_bytes: 0,
            nstar_fits: 0.0,
        };
        let mut buf = Vec::new();
        let before = fgbd_obsv::metrics::snapshot();
        let t0 = Instant::now();
        loop {
            let t = traced.then(Instant::now);
            let more = cursor
                .next_chunk(&mut buf)
                .map_err(|e| format!("decode: {e}"))?;
            if let Some(t) = t {
                r.cursor += t.elapsed();
            }
            if !more {
                break;
            }
            let mut now = secs(t0.elapsed());
            let mut chunk_late: f64 = 0.0;
            for (j, rec) in buf.iter().enumerate() {
                let d = due(rec);
                if d > now {
                    now = secs(t0.elapsed());
                    if d > now {
                        r.idle += wait_until(t0, d);
                        now = secs(t0.elapsed());
                    }
                } else if j % CLOCK_EVERY == 0 {
                    // Behind schedule: refresh the clock now and then so
                    // a long catch-up is not timed from its first record.
                    now = secs(t0.elapsed());
                }
                let late = now - d;
                r.lateness.record(late);
                chunk_late = chunk_late.max(late);
                let t = traced.then(Instant::now);
                det.push(rec);
                let evs = det.drain_events();
                if let Some(t) = t {
                    r.push += t.elapsed();
                }
                if !evs.is_empty() {
                    now = secs(t0.elapsed());
                    let lat = (now - d) * 1e3;
                    r.latencies.extend(std::iter::repeat_n(lat, evs.len()));
                    r.events.extend(evs);
                }
            }
            r.records += buf.len() as u64;
            r.chunk_late_ms.push(chunk_late * 1e3);
            r.state_bytes = r.state_bytes.max(det.state_bytes());
        }
        r.wall = t0.elapsed();
        r.nstar_fits = count(
            &fgbd_obsv::metrics::snapshot().delta(&before).counters,
            "nstar.fits",
        );
        Ok((r, det))
    }
}

/// Spins until `due` host seconds after `t0` and returns the time spent
/// waiting. A sleep would wake late by up to a scheduler tick, and that
/// lateness would land on the very records the replay is timing.
fn wait_until(t0: Instant, due: f64) -> Duration {
    let start = Instant::now();
    while secs(t0.elapsed()) < due {
        std::hint::spin_loop();
    }
    start.elapsed()
}

fn event_json(ev: &MonitorEvent) -> Json {
    Json::Obj(vec![
        ("server".into(), Json::Num(f64::from(ev.server.0))),
        (
            "kind".into(),
            Json::Str(
                match ev.kind {
                    VerdictKind::Onset => "onset",
                    VerdictKind::Clear => "clear",
                }
                .into(),
            ),
        ),
        ("interval".into(), Json::Num(ev.interval as f64)),
        (
            "interval_end_us".into(),
            Json::Num(ev.interval_end.as_micros() as f64),
        ),
    ])
}

fn live(o: &Opts) -> Result<Doc> {
    let path = o.str("capture")?;
    let seconds: f64 = o.num("seconds")?;
    let reference: f64 = o.num("reference")?;
    let traced = o.traced();

    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    // Set-up: calibrate over the bounded prefix exactly as the zero-copy
    // engine of `analyze_capture` does. Repeated so run.py can report a
    // median; the last calibration is kept.
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut live = None;
    let mut prober = Prober::new();
    for _ in 0..3 {
        let t = Instant::now();
        let cursor = ChunkCursor::new(&bytes).map_err(|e| format!("open capture: {e}"))?;
        let nodes = cursor.nodes().to_vec();
        let (start, end) = cursor.time_bounds().ok_or("empty capture")?;
        let cap = calib_records_from_env();
        let mut cursor = cursor;
        let mut prefix: Vec<MsgRecord> = Vec::new();
        let mut buf = Vec::new();
        while prefix.len() < cap
            && cursor
                .next_chunk(&mut buf)
                .map_err(|e| format!("decode: {e}"))?
        {
            prefix.extend_from_slice(&buf);
        }
        prefix.truncate(cap);
        let cal = Calibration::from_capture_prefix(&nodes, &prefix);
        setups.push(secs(t.elapsed()));
        setup_probes.push(prober.around());
        live = Some(Live {
            bytes: &bytes,
            nodes,
            cal,
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
        });
    }
    let live = live.expect("three calibrations ran");
    let span_s = (live.end - live.start).as_secs_f64();

    // Measured phase: replays at the reference speed-up (for latency)
    // alternate with saturated replays (for the maximum rate), in which
    // every record is due at once, so the generator never waits and pushes
    // at the highest rate the cursor and detector sustain.
    let mut saturated_rates: Vec<f64> = Vec::new();
    let mut reference_runs: Vec<Replay> = Vec::new();
    let mut traced_runs: Vec<Replay> = Vec::new();
    let mut final_det = None;
    let mut first_events: Option<Vec<MonitorEvent>> = None;
    let mut mismatches = 0u64;
    let mut replays = 0u64;
    let mut reference_probes: Vec<f64> = Vec::new();
    let mut saturated_probes: Vec<f64> = Vec::new();
    let t_measure = Instant::now();
    while replays == 0 || secs(t_measure.elapsed()) < seconds {
        let (plain, det) = live.replay(reference, false)?;
        reference_probes.push(prober.around());
        mismatches += u64::from(!same_events(&mut first_events, &plain.events));
        final_det = Some(det);
        reference_runs.push(plain);
        // Timing every push slows a traced replay, so latency comes from
        // the untraced replays and only the layer times from the traced.
        let (r, _) = live.replay(if traced { reference } else { f64::INFINITY }, traced)?;
        let probe = prober.around();
        mismatches += u64::from(!same_events(&mut first_events, &r.events));
        replays += 2;
        if traced {
            traced_runs.push(r);
        } else {
            saturated_rates.push(r.records as f64 / secs(r.wall));
            saturated_probes.push(probe);
        }
    }

    // Final reports of the last reference replay: with `retain` on they
    // equal the batch analysis, so run.py compares this file with the CLI's.
    let det = final_det.expect("at least one replay");
    let fin = det.finish(live.end);
    let window = Window::new(live.start, live.end, INTERVAL);
    let names: HashMap<u16, &str> = live
        .nodes
        .iter()
        .map(|n| (n.id.0, n.name.as_str()))
        .collect();
    let views: Vec<VerdictView> = fin
        .reports
        .iter()
        .filter(|r| r.matched > 0)
        .map(|r| VerdictView {
            name: names.get(&r.server.0).copied().unwrap_or("?"),
            loads: &r.loads,
            rates: &r.rates,
            states: &r.states,
            nstar: r.nstar.as_ref(),
        })
        .collect();
    write_verdicts(o.str("verdicts")?, window, &views)?;
    let frozen: usize = views
        .iter()
        .map(|v| frozen_tomcat_intervals(v.name, v.states))
        .sum();
    let events_path = o.str("events")?;
    let mut ev_out =
        JsonlWriter::create(events_path).map_err(|e| format!("create {events_path}: {e}"))?;
    for ev in first_events.as_deref().unwrap_or(&[]) {
        ev_out
            .write(&event_json(ev))
            .map_err(|e| format!("write {events_path}: {e}"))?;
    }

    let nums = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
    let mut doc: Doc = vec![
        ("setup_s".into(), nums(setups)),
        ("setup_probe_s".into(), nums(setup_probes)),
        ("reference_probe_s".into(), nums(reference_probes)),
        ("saturated_probe_s".into(), nums(saturated_probes)),
    ];
    put(&mut doc, "replays", replays as f64);
    put(&mut doc, "reference_replays", reference_runs.len() as f64);
    put(&mut doc, "event_mismatches", mismatches as f64);
    put(&mut doc, "tomcat_frozen_intervals", frozen as f64);
    put(
        &mut doc,
        "records",
        reference_runs.first().map_or(0.0, |r| r.records as f64),
    );
    put(&mut doc, "capture_seconds", span_s);
    let lat: Vec<f64> = reference_runs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    put(
        &mut doc,
        "verdicts_over_limit",
        lat.iter().filter(|&&l| l > LIMIT_MS).count() as f64,
    );
    put(&mut doc, "verdicts", lat.len() as f64);
    put(&mut doc, "limit_ms", LIMIT_MS);
    // Per replay, so a burst of contention from other tenants that slows a
    // few replays cannot move the median.
    let mut lateness = Lateness::default();
    for r in &reference_runs {
        lateness.merge(&r.lateness);
    }
    put(&mut doc, "record_latencies", lateness.count() as f64);
    put(&mut doc, "record_late_p50_ms", lateness.quantile_ms(0.5));
    doc.push((
        "record_late_p99_ms".into(),
        nums(
            reference_runs
                .iter()
                .map(|r| r.lateness.quantile_ms(0.99))
                .collect(),
        ),
    ));
    doc.push((
        "chunk_late_p50_ms".into(),
        nums(
            reference_runs
                .iter()
                .map(|r| median(&mut r.chunk_late_ms.clone()))
                .collect(),
        ),
    ));
    doc.push(("latencies_ms".into(), nums(lat)));
    doc.push(("saturated_rates".into(), nums(saturated_rates)));
    if traced {
        let pick = |runs: &[Replay], f: &dyn Fn(&Replay) -> f64| {
            let mut xs: Vec<f64> = runs.iter().map(f).collect();
            median(&mut xs)
        };
        let busy = |r: &Replay| secs(r.wall.saturating_sub(r.idle));
        let records = pick(&traced_runs, &|r| r.records as f64);
        let cursor = pick(&traced_runs, &|r| secs(r.cursor));
        let push = pick(&traced_runs, &|r| secs(r.push));
        let wall = pick(&traced_runs, &|r| secs(r.wall));
        let idle = pick(&traced_runs, &|r| secs(r.idle));
        put(&mut doc, "trace.capture2.cursor_s", cursor);
        put(
            &mut doc,
            "trace.capture2.cursor_records_per_s",
            ratio(records, cursor),
        );
        put(&mut doc, "core.online.push_s", push);
        put(
            &mut doc,
            "core.online.push_records_per_s",
            ratio(records, push),
        );
        put(
            &mut doc,
            "core.online.nstar_refits",
            pick(&traced_runs, &|r| r.nstar_fits),
        );
        put(
            &mut doc,
            "core.online.state_bytes",
            pick(&traced_runs, &|r| r.state_bytes as f64),
        );
        put(
            &mut doc,
            "monitor.idle_s",
            pick(&reference_runs, &|r| secs(r.idle)),
        );
        let late_ms = pick(&reference_runs, &|r| r.lateness.max_ms());
        put(&mut doc, "monitor.gen_late_ms", late_ms);
        // Records due but not yet pushed at the worst moment: the worst
        // lateness times the offered rate.
        put(
            &mut doc,
            "monitor.backlog_records",
            late_ms * 1e-3 * reference * records / span_s,
        );
        put(
            &mut doc,
            "trace_overhead_ratio",
            ratio(pick(&traced_runs, &busy), pick(&reference_runs, &busy)),
        );
        put(
            &mut doc,
            "trace_remainder_ratio",
            ratio(wall - idle - cursor - push, wall),
        );
    }
    Ok(doc)
}

/// Live verdicts depend only on record order, never on pacing: every
/// replay must emit the first replay's verdict stream exactly.
fn same_events(first: &mut Option<Vec<MonitorEvent>>, events: &[MonitorEvent]) -> bool {
    match first {
        None => {
            *first = Some(events.to_vec());
            true
        }
        Some(f) => {
            f.len() == events.len()
                && f.iter().zip(events).all(|(a, b)| {
                    a.server == b.server
                        && a.kind == b.kind
                        && a.interval == b.interval
                        && a.interval_end == b.interval_end
                })
        }
    }
}
