//! Zero-copy capture analysis: the `FGBDCAP2` → verdict pipeline with peak
//! memory independent of capture size.
//!
//! The batch engine of `analyze_capture` (the `FGBDCAP1` engine and the
//! test oracle) materializes the whole capture as a `TraceLog`, extracts
//! every span, and runs the batch detector — simple, but memory grows with
//! the capture. This module is the same analysis restructured over the
//! chunk cursor and the online detector, and it is `analyze_capture`'s
//! engine for every `FGBDCAP2` capture:
//!
//! 1. the capture file is memory-mapped ([`fgbd_trace::mmapio`]) — no heap
//!    copy of the bytes, and consumed pages are released as the scan
//!    advances ([`Mapping::release_until`]) so `VmHWM` stays flat;
//! 2. a lazy [`ChunkCursor`] decodes one chunk at a time, skipping the
//!    columns detection never reads (`bytes`, ground truth — see
//!    [`Projection::DETECT`]);
//! 3. each chunk feeds the [`OnlineDetector`] directly — no intermediate
//!    `TraceLog`, no materialized `SpanSet`; the online detector's
//!    equivalence guarantee makes the final reports bit-identical to the
//!    batch `analyze_server` output.
//!
//! Service-time self-calibration still needs random access over records,
//! so it runs over a bounded prefix
//! ([`crate::pipeline::calib_records_from_env`], default 1 Mi records) that
//! the batch path applies identically — calibration is the one stage whose
//! memory is bounded by the budget rather than by a single chunk.

use std::collections::HashMap;
use std::path::Path;

use fgbd_core::online::{OnlineConfig, OnlineDetector, OnlineReport};
use fgbd_des::{SimDuration, SimTime};
use fgbd_trace::capture2::ChunkCursor;
use fgbd_trace::mmapio::Mapping;
use fgbd_trace::{CaptureError, MsgRecord, NodeKind, NodeMeta, Projection};

use crate::pipeline::{calib_records_from_env, Calibration, WORK_UNIT_RESOLUTION};

/// Does `path` start with the `FGBDCAP2` magic? The chunk cursor only
/// reads the chunked format; flat `FGBDCAP1` captures take the batch
/// reader.
pub fn is_capture2(path: &Path) -> bool {
    use std::io::Read;
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| &magic == fgbd_trace::capture2::MAGIC2)
        .unwrap_or(false)
}

/// Everything the zero-copy pass produces — enough to render the exact
/// `analyze_capture` report without ever holding the capture in memory.
#[derive(Debug)]
pub struct ZeroCopyAnalysis {
    /// The capture's node table.
    pub nodes: Vec<NodeMeta>,
    /// Total records in the capture (from the footer index).
    pub records: u64,
    /// First record timestamp (grid start). Zero for an empty capture.
    pub start: SimTime,
    /// Last record timestamp (grid end). Zero for an empty capture.
    pub end: SimTime,
    /// `(name, report)` per server, in node-table order, servers with at
    /// least one matched span only — the batch path's report set. The
    /// reports' loads/rates/states/N\* are bit-identical to
    /// `analyze_server` on the materialized capture.
    pub reports: Vec<(String, OnlineReport)>,
}

/// Runs the full zero-copy analysis over an `FGBDCAP2` capture file:
/// mmap, bounded-prefix calibration, then a projected chunk-cursor pass
/// through the online detector. `interval` is the analysis granularity,
/// `threads` the decode-ahead width (clamped on <2-core hosts).
///
/// An empty capture returns with `records == 0` and no reports.
///
/// # Errors
///
/// [`CaptureError::Io`] for filesystem failures, [`CaptureError::BadMagic`]
/// for non-`FGBDCAP2` inputs (check [`is_capture2`] first), and
/// [`CaptureError::Malformed`] / [`CaptureError::Chunk`] for damaged
/// captures, attributed per chunk exactly as the batch readers do.
pub fn analyze_capture2_zero_copy(
    path: &Path,
    interval: SimDuration,
    threads: usize,
) -> Result<ZeroCopyAnalysis, CaptureError> {
    fgbd_obsv::span!("zero_copy_analyze");
    let map = Mapping::open(path)?;
    map.advise_sequential();

    let cursor = ChunkCursor::new(&map)?;
    let nodes: Vec<NodeMeta> = cursor.nodes().to_vec();
    let records = cursor.total_records();
    let Some((start_us, end_us)) = cursor.time_bounds() else {
        return Ok(ZeroCopyAnalysis {
            nodes,
            records: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            reports: Vec::new(),
        });
    };
    let start = SimTime::from_micros(start_us);
    let end = SimTime::from_micros(end_us);

    // Pass 1 — calibration over the bounded prefix, full columns (the
    // service-time quantiles read everything the reconstruction reads).
    // Memory: at most the calibration budget, not the capture.
    let cal = {
        let cap = calib_records_from_env();
        let mut cursor = cursor;
        let mut prefix: Vec<MsgRecord> = Vec::new();
        let mut buf = Vec::new();
        while prefix.len() < cap && cursor.next_chunk(&mut buf)? {
            prefix.extend_from_slice(&buf);
        }
        prefix.truncate(cap);
        Calibration::from_capture_prefix(&nodes, &prefix)
    };

    // Pass 2 — detection: projected columns, decode-ahead, one chunk
    // resident at a time, consumed mapping pages released behind the scan.
    let ocfg = OnlineConfig::new(start, interval, WORK_UNIT_RESOLUTION);
    let mut det = OnlineDetector::new(ocfg, cal.services.clone());
    for (&node, &wu) in &cal.work_units {
        det.set_work_unit(node, wu);
    }
    let mut cursor = ChunkCursor::new(&map)?
        .with_projection(Projection::DETECT)
        .with_threads(threads);
    {
        fgbd_obsv::span!("zero_copy_detect");
        let mut buf = Vec::new();
        while cursor.next_chunk(&mut buf)? {
            det.push_chunk(&buf);
            map.release_until(cursor.consumed_bytes());
        }
    }
    let fin = det.finish(end);

    // Node-table order, servers only, at least one matched span — the
    // batch filter (`matched > 0` ⇔ the batch span set is non-empty).
    let mut by_id: HashMap<u16, OnlineReport> =
        fin.reports.into_iter().map(|r| (r.server.0, r)).collect();
    let mut reports = Vec::new();
    for meta in nodes.iter().filter(|n| n.kind == NodeKind::Server) {
        if let Some(rep) = by_id.remove(&meta.id.0) {
            if rep.matched > 0 {
                reports.push((meta.name.clone(), rep));
            }
        }
    }
    Ok(ZeroCopyAnalysis {
        nodes,
        records,
        start,
        end,
        reports,
    })
}
