//! `serve-rw`: the operators' path. An in-process `iris_service::serve`
//! on loopback serves `simple_region(7, 8)` at k = 1 with one shard, a
//! WAL directory and the flight recorder at its default (on). Two
//! connections, each on its own client thread, negotiate the binary
//! codec and run a seeded closed loop:
//!
//! * a reader issues GetPlan, GetTopology, QueryPath and Health, one in
//!   flight at a time, in seeded blocks that hold each operation once;
//! * a writer issues UpdateDemand over the 28 DC pairs with 1..=4
//!   circuits, keeping a fixed window of writes in flight, well under
//!   the server's queue capacity, so coalescing and group commit work.
//!
//! An untraced run drives both loops for the measuring window. A traced
//! run drives a fixed number of operations twice — untraced, then traced
//! — so the request counts repeat exactly, and afterwards replays
//! captured payloads through the codec and frame functions and reads
//! the WAL back.
//!
//! Checks: every reply has the kind its request expects, and the final
//! GetTopology allocation equals the last acknowledged write of every
//! pair.

use crate::probe;
use crate::report::Report;
use crate::spans::{Local, Tracer};
use crate::stats::{self, mean, median, quantile, HistDelta, Rng};
use crate::{Ctx, Size};
use iris_errors::IrisError;
use iris_service::codec::{decode_request, decode_response, encode_request, encode_response};
use iris_service::frame::{append_frame, parse_frame, read_frame, write_frame_traced};
use iris_service::wal::{read_log, Wal, WAL_FILE};
use iris_service::{serve, Codec, FrameEvent, Request, Response, ServiceClient, ServiceConfig};
use iris_telemetry::{labeled, Snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

const SETUPS: usize = 9;
/// Sub-windows of an untraced run; see [`Latencies`].
const WINDOWS: usize = 30;
const DCS: usize = 8;
/// Writes in flight on the writer connection (the queue holds 64).
const WRITE_WINDOW: usize = 8;
/// Read operations, in the order of their telemetry labels.
const READ_OPS: [&str; 4] = ["get_plan", "get_topology", "query_path", "health"];
/// Reads and writes per second of `--seconds` in each pass of a traced
/// run.
const TRACED_READS_PER_S: f64 = 3000.0;
const TRACED_WRITES_PER_S: f64 = 150.0;
/// Replies of each read operation kept for the offline codec replay.
const CAPTURE: usize = 64;
/// WAL records re-appended (with fsync) into a fresh log after the run.
const REAPPEND: usize = 200;

fn pairs() -> Vec<(usize, usize)> {
    (0..DCS)
        .flat_map(|a| (a + 1..DCS).map(move |b| (a, b)))
        .collect()
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize),
}

impl Stop {
    fn done(self, issued: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => issued >= n,
        }
    }
}

struct Server {
    reader: ServiceClient,
    writer: (TcpStream, Codec),
    dir: PathBuf,
    handle: iris_service::ServiceHandle,
}

fn start(ctx: &Ctx, i: usize) -> Result<Server, String> {
    let e = |e: IrisError| e.to_string();
    let region = iris_bench::simple_region(7, DCS);
    let dir = ctx
        .run_dir
        .join(format!("serve-rw-{}-wal{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cuts: 1,
        shards: 1,
        wal_dir: Some(dir.display().to_string()),
        // Keep the whole run in the log, so reading it back measures
        // recovery over every record the run wrote.
        snapshot_every: 0,
        ..ServiceConfig::default()
    };
    let handle = serve(region, &config).map_err(e)?;
    let addr = handle.local_addr().to_string();
    let mut reader = ServiceClient::connect(&addr).map_err(e)?;
    reader.hello(Codec::Binary).map_err(e)?;
    let mut writer = ServiceClient::connect(&addr).map_err(e)?;
    writer.hello(Codec::Binary).map_err(e)?;
    Ok(Server {
        reader,
        writer: writer.into_parts(),
        dir,
        handle,
    })
}

struct Reads {
    lat: Latencies,
    wall_s: f64,
    failed: u64,
    wrong_kind: u64,
    /// Sampled `(request, reply)` pairs per operation, for the codec
    /// replay.
    captured: [Vec<(Request, Response)>; 4],
}

fn read_loop(
    client: &mut ServiceClient,
    seed: u64,
    stop: Stop,
    width_s: f64,
    tracer: Option<&Tracer>,
) -> Reads {
    let pairs = pairs();
    let mut rng = Rng::new(seed ^ 0x5EAD);
    let mut block = [0usize, 1, 2, 3];
    let mut local: Option<Local<'_>> = tracer.map(|t| t.local(0));
    let mut out = Reads {
        lat: Latencies::new(width_s, 0.99),
        wall_s: 0.0,
        failed: 0,
        wrong_kind: 0,
        captured: Default::default(),
    };
    // Probe units pace the timed measurement only, not the fixed counts
    // of a traced run.
    let mut pacer = matches!(stop, Stop::At(_)).then(probe::Pacer::default);
    let start = Instant::now();
    while !stop.done(out.lat.count) {
        if let Some(p) = pacer.as_mut() {
            if let Some(ms) = p.tick() {
                out.lat.unit(start.elapsed().as_secs_f64(), ms);
            }
        }
        let k = out.lat.count % 4;
        if k == 0 {
            rng.shuffle(&mut block);
        }
        let op = block[k];
        let req = match op {
            0 => Request::GetPlan,
            1 => Request::GetTopology,
            2 => {
                let (a, b) = pairs[rng.below(pairs.len())];
                Request::QueryPath { a, b }
            }
            _ => Request::Health,
        };
        let t = Instant::now();
        let reply = client.call(&req);
        let end = Instant::now();
        out.lat
            .record((end - start).as_secs_f64(), (end - t).as_secs_f64() * 1e3);
        if let Some(l) = local.as_mut() {
            l.record("service.call", t, end);
        }
        match reply {
            Ok(Response::Error(_)) | Err(_) => out.failed += 1,
            Ok(resp) => {
                let expected = matches!(
                    (op, &resp),
                    (0, Response::Plan(_))
                        | (1, Response::Topology(_))
                        | (2, Response::Path(_))
                        | (3, Response::Health(_))
                );
                if !expected {
                    out.wrong_kind += 1;
                } else if tracer.is_some() && out.captured[op].len() < CAPTURE {
                    out.captured[op].push((req, resp));
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

struct Writes {
    lat: Latencies,
    wall_s: f64,
    failed: u64,
    /// Last acknowledged circuit count per pair index.
    last: BTreeMap<usize, u32>,
    max_queue_depth: usize,
}

fn write_loop(
    conn: &mut (TcpStream, Codec),
    seed: u64,
    stop: Stop,
    width_s: f64,
    tracer: Option<&Tracer>,
) -> Result<Writes, String> {
    let (stream, codec) = (&mut conn.0, conn.1);
    let pairs = pairs();
    let mut rng = Rng::new(seed ^ 0xF17E);
    let mut local: Option<Local<'_>> = tracer.map(|t| t.local(0));
    let mut inflight: VecDeque<(Instant, usize, u32)> = VecDeque::new();
    // Write p95, not p99: about 1 % of writes wait behind a slow fsync
    // of the shared disk, so p99 falls in that sparse mode and swings
    // from run to run.
    let mut out = Writes {
        lat: Latencies::new(width_s, 0.95),
        wall_s: 0.0,
        failed: 0,
        last: BTreeMap::new(),
        max_queue_depth: 0,
    };
    let mut sent = 0;
    let start = Instant::now();
    loop {
        while inflight.len() < WRITE_WINDOW && !stop.done(sent) {
            let p = rng.below(pairs.len());
            let circuits = 1 + rng.below(4) as u32;
            let (a, b) = pairs[p];
            let req = Request::UpdateDemand { a, b, circuits };
            let payload = encode_request(codec, &req).map_err(|e| e.to_string())?;
            // As `ServiceClient::call` does: writes carry a fresh trace
            // id while the flight recorder is on.
            let trace = iris_telemetry::trace::enabled().then(iris_telemetry::trace::mint_trace_id);
            write_frame_traced(stream, &payload, trace).map_err(|e| e.to_string())?;
            inflight.push_back((Instant::now(), p, circuits));
            sent += 1;
        }
        let Some((t, p, circuits)) = inflight.pop_front() else {
            break;
        };
        let bytes = match read_frame(stream).map_err(|e| e.to_string())? {
            FrameEvent::Frame(bytes) => bytes,
            FrameEvent::Idle | FrameEvent::Eof => {
                return Err("server closed the writer connection".to_owned())
            }
        };
        let end = Instant::now();
        out.lat
            .record((end - start).as_secs_f64(), (end - t).as_secs_f64() * 1e3);
        if let Some(l) = local.as_mut() {
            l.record("service.update_demand", t, end);
        }
        match decode_response(codec, &bytes) {
            Ok(Response::DemandAccepted { queue_depth, .. }) => {
                out.last.insert(p, circuits);
                out.max_queue_depth = out.max_queue_depth.max(queue_depth);
            }
            _ => out.failed += 1,
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// One loop's latencies, folded into per-window figures as they arrive
/// so that memory stays flat however fast the server runs.
struct Latencies {
    width_s: f64,
    tail: f64,
    window: usize,
    buf: Vec<f64>,
    /// Completion times of the window's first and last operations.
    first_s: f64,
    last_s: f64,
    /// Probe units the loop ran in the current window.
    units: Vec<f64>,
    /// Per closed window: throughput, mean, p50 and tail latency, as
    /// measured.
    windows: Vec<[f64; 4]>,
    /// Per closed window: the probe's slowdown (1 without units).
    slowdowns: Vec<f64>,
    count: usize,
    sum_ms: f64,
}

impl Latencies {
    /// Figures over [`WINDOWS`] windows of `width_s` each, with `tail`
    /// as the tail quantile.
    fn new(width_s: f64, tail: f64) -> Self {
        Self {
            width_s,
            tail,
            window: 0,
            buf: Vec::new(),
            first_s: 0.0,
            last_s: 0.0,
            units: Vec::new(),
            windows: Vec::new(),
            slowdowns: Vec::new(),
            count: 0,
            sum_ms: 0.0,
        }
    }

    /// Closes windows up to the one `at_s` falls in; false past the
    /// last window.
    fn advance(&mut self, at_s: f64) -> bool {
        let w = (at_s / self.width_s) as usize;
        while self.window < w.min(WINDOWS) {
            self.close();
        }
        w < WINDOWS
    }

    /// An operation that completed `done_s` after the loop started.
    /// Replies drained after the last window count only in the totals.
    fn record(&mut self, done_s: f64, ms: f64) {
        self.count += 1;
        self.sum_ms += ms;
        if !self.advance(done_s) {
            return;
        }
        if self.buf.is_empty() {
            self.first_s = done_s;
        }
        self.last_s = done_s;
        self.buf.push(ms);
    }

    /// A probe unit of `ms` the loop ran `at_s` after it started.
    fn unit(&mut self, at_s: f64, ms: f64) {
        if self.advance(at_s) {
            self.units.push(ms);
        }
    }

    fn close(&mut self) {
        // Throughput between the window's first and last completions,
        // without the probe units' time.
        let probe_s = self.units.iter().sum::<f64>() / 1e3;
        let rate = if self.buf.len() > 1 {
            (self.buf.len() - 1) as f64 / (self.last_s - self.first_s - probe_s)
        } else {
            self.buf.len() as f64 / self.width_s
        };
        self.buf.sort_by(f64::total_cmp);
        self.windows.push([
            rate,
            mean(&self.buf),
            stats::sorted_quantile(&self.buf, 0.5),
            stats::sorted_quantile(&self.buf, self.tail),
        ]);
        self.slowdowns.push(probe::slowdown(&self.units));
        self.buf.clear();
        self.units.clear();
        self.window += 1;
    }

    fn mean_ms(&self) -> f64 {
        self.sum_ms / self.count.max(1) as f64
    }

    /// Per-window probe slowdowns, every window closed.
    fn slowdowns(&mut self) -> Vec<f64> {
        while self.window < WINDOWS {
            self.close();
        }
        self.slowdowns.clone()
    }

    /// Throughput, p50 and tail at the probe's reference speed, given
    /// each window's slowdown. Of each latency only the part above
    /// `floor_ms` — a timer's wait, not work — is rescaled, and the
    /// throughput of the closed loop moves inversely with its mean
    /// latency. Throughput and p50 are medians over the windows; the
    /// tail is their lower quartile, because a burst of slow disk
    /// flushes or scheduling stalls, which the probe does not see,
    /// inflates the tails of a few windows by far more than the rest.
    fn figures(mut self, slowdowns: &[f64], floor_ms: f64) -> (f64, f64, f64) {
        while self.window < WINDOWS {
            self.close();
        }
        let at_ref = |ms: f64, slow: f64| floor_ms.min(ms) + (ms - floor_ms).max(0.0) / slow;
        let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        for (&[rate, mean_ms, p50, tail], &slow) in self.windows.iter().zip(slowdowns) {
            if mean_ms > 0.0 {
                rates.push(rate * mean_ms / at_ref(mean_ms, slow));
                p50s.push(at_ref(p50, slow));
                tails.push(at_ref(tail, slow));
            }
        }
        (median(&rates), median(&p50s), quantile(&tails, 0.25))
    }
}

/// Run the reader and the writer together, one thread each.
fn pass(
    srv: &mut Server,
    ctx: &Ctx,
    reads: Stop,
    writes: Stop,
    tracer: Option<&Tracer>,
) -> Result<(Reads, Writes), String> {
    let (reader, writer) = (&mut srv.reader, &mut srv.writer);
    let (seed, width_s) = (ctx.seed, ctx.seconds / WINDOWS as f64);
    std::thread::scope(|s| {
        let r = s.spawn(move || read_loop(reader, seed, reads, width_s, tracer));
        let w = s.spawn(move || write_loop(writer, seed, writes, width_s, tracer));
        let r = r.join().map_err(|_| "reader thread panicked".to_owned())?;
        let w = w
            .join()
            .map_err(|_| "writer thread panicked".to_owned())??;
        Ok((r, w))
    })
}

fn allocation(client: &mut ServiceClient) -> Result<BTreeMap<(usize, usize), u32>, String> {
    match client
        .call(&Request::GetTopology)
        .map_err(|e| e.to_string())?
    {
        Response::Topology(t) => Ok(t
            .allocation
            .iter()
            .map(|e| ((e.a, e.b), e.circuits))
            .collect()),
        other => Err(format!("GetTopology answered {other:?}")),
    }
}

/// Server-side counters and histograms the run reports.
fn latency(before: &Snapshot, after: &Snapshot, op: &str) -> HistDelta {
    HistDelta::between(before, after, &labeled("iris_service_latency_ms", "op", op))
}

fn requests(before: &Snapshot, after: &Snapshot, op: &str) -> u64 {
    stats::counter_delta(
        before,
        after,
        &labeled("iris_service_requests_total", "op", op),
    )
}

/// The exact counts of a pass: requests per operation.
fn exact_counts(before: &Snapshot, after: &Snapshot) -> Vec<u64> {
    READ_OPS
        .iter()
        .chain(&["update_demand"])
        .map(|op| requests(before, after, op))
        .collect()
}

/// Nanoseconds per message of `f` over `items`, repeated until at least
/// 20 ms have passed.
fn ns_per_message<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < 0.02 {
        for item in items {
            f(item);
        }
        n += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Replay captured payloads through the public codec and frame
/// functions; checks that every message round-trips.
fn wire_replay(
    report: &mut Report,
    captured: &[Vec<(Request, Response)>; 4],
) -> Result<(), String> {
    let codec = Codec::Binary;
    let e = |e: IrisError| e.to_string();
    let mut msgs = Vec::new();
    for (op, samples) in READ_OPS.iter().zip(captured) {
        let mut sizes = Vec::new();
        for (req, resp) in samples {
            let req_bytes = encode_request(codec, req).map_err(e)?;
            let resp_bytes = encode_response(codec, resp).map_err(e)?;
            let mut framed = Vec::new();
            append_frame(&mut framed, &resp_bytes).map_err(e)?;
            let ok = decode_request(codec, &req_bytes).map_err(e)? == *req
                && decode_response(codec, &resp_bytes).map_err(e)? == *resp
                && parse_frame(&framed).map_err(e)?.map(|f| f.payload) == Some(resp_bytes.clone());
            if !ok {
                report.check(
                    "wire_round_trip",
                    false,
                    format!("{op} does not round-trip"),
                );
            }
            sizes.push(resp_bytes.len() as f64);
            msgs.push((req_bytes, resp.clone(), resp_bytes, framed));
        }
        report.set(
            &format!("wire.reply_bytes.{op}"),
            mean(&sizes),
            sizes.len() as u64,
        );
    }
    let n = msgs.len() as u64;
    report.set(
        "wire.codec.decode_request_ns",
        ns_per_message(&msgs, |m| {
            drop(black_box(decode_request(codec, black_box(&m.0))))
        }),
        n,
    );
    report.set(
        "wire.codec.encode_response_ns",
        ns_per_message(&msgs, |m| {
            drop(black_box(encode_response(codec, black_box(&m.1))))
        }),
        n,
    );
    report.set(
        "wire.codec.decode_response_ns",
        ns_per_message(&msgs, |m| {
            drop(black_box(decode_response(codec, black_box(&m.2))))
        }),
        n,
    );
    report.set(
        "wire.frame.parse_ns",
        ns_per_message(&msgs, |m| drop(black_box(parse_frame(black_box(&m.3))))),
        n,
    );
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut srv: Option<Server> = None;
    for i in 0..SETUPS {
        if let Some(old) = srv.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        srv = Some(start(ctx, i)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut srv = srv.expect("at least one set-up");
    let pairs = pairs();
    let mut expected = allocation(&mut srv.reader)?;

    let mut account = |report: &mut Report, r: &Reads, w: &Writes| {
        report.attempted += (r.lat.count + w.lat.count) as u64;
        report.failed += r.failed + w.failed;
        report.check(
            "read_reply_kinds",
            r.wrong_kind == 0,
            format!(
                "{} of {} replies of the wrong kind",
                r.wrong_kind, r.lat.count
            ),
        );
        for (&p, &c) in &w.last {
            expected.insert(pairs[p], c);
        }
    };

    let tracer = Tracer::new();
    let mut plain_pass = None;
    let traced_pass = if ctx.trace {
        let scale = if ctx.size == Size::Tiny { 0.1 } else { 1.0 };
        let reads = Stop::After((TRACED_READS_PER_S * ctx.seconds * scale) as usize);
        let writes = Stop::After((TRACED_WRITES_PER_S * ctx.seconds * scale) as usize);
        let s0 = stats::registry();
        let (r, w) = pass(&mut srv, ctx, reads, writes, None)?;
        let s1 = stats::registry();
        account(&mut report, &r, &w);
        let (tr, tw) = pass(&mut srv, ctx, reads, writes, Some(&tracer))?;
        let s2 = stats::registry();
        account(&mut report, &tr, &tw);
        report.check(
            "exact_counts_repeat",
            exact_counts(&s0, &s1) == exact_counts(&s1, &s2),
            format!(
                "untraced {:?} vs traced {:?}",
                exact_counts(&s0, &s1),
                exact_counts(&s1, &s2)
            ),
        );
        plain_pass = Some(r);
        Some((tr, tw, s1, s2))
    } else {
        let until = Stop::At(Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds));
        let (mut r, w) = pass(&mut srv, ctx, until, until, None)?;
        account(&mut report, &r, &w);
        report.set("setup_s", median(&setup_s), SETUPS as u64);
        let n = r.lat.count as u64;
        // The reader's probe units stand for the writer's windows too,
        // so the writer's acknowledgements are never held up by one.
        let slowdowns = r.lat.slowdowns();
        let floor_ms = ServiceConfig::default().coalesce_window_ms as f64;
        let (rate, p50, p99) = r.lat.figures(&slowdowns, 0.0);
        report.set("ops_per_s", rate, n);
        report.set("op_p50_ms", p50, n);
        report.set("op_tail_ms", p99, n);
        let n = w.lat.count as u64;
        let (rate, p50, p95) = w.lat.figures(&slowdowns, floor_ms);
        report.set("aux_ops_per_s", rate, n);
        report.set("aux_op_p50_ms", p50, n);
        report.set("aux_op_tail_ms", p95, n);
        None
    };

    let final_alloc = allocation(&mut srv.reader)?;
    let wrong = expected
        .iter()
        .filter(|(k, v)| final_alloc.get(k) != Some(v))
        .count();
    report.check(
        "final_allocation_matches_acked_writes",
        wrong == 0 && final_alloc.len() == expected.len(),
        format!(
            "{wrong} of {} pairs differ from their last acknowledged write",
            expected.len()
        ),
    );

    let Some((r, w, before, after)) = traced_pass else {
        drop(srv.handle);
        let _ = std::fs::remove_dir_all(&srv.dir);
        return Ok(report);
    };
    for op in READ_OPS.iter().chain(&["update_demand"]) {
        let h = latency(&before, &after, op);
        report.set(
            &format!("service.latency_ms.{op}.p50"),
            h.quantile(0.5),
            h.count,
        );
        report.set(
            &format!("service.latency_ms.{op}.p99"),
            h.quantile(0.99),
            h.count,
        );
        report.set(
            &format!("service.requests.{op}"),
            requests(&before, &after, op) as f64,
            1,
        );
    }
    let (server_ms, server_n) = READ_OPS.iter().fold((0.0, 0), |(s, n), op| {
        let h = latency(&before, &after, op);
        (s + h.sum, n + h.count)
    });
    report.set(
        "service.read_transport_ms",
        r.lat.mean_ms() - server_ms / server_n.max(1) as f64,
        r.lat.count as u64,
    );
    let c = |name: &str| stats::counter_delta(&before, &after, name) as f64;
    let applied = c("iris_service_writes_applied_total");
    let coalesced = c("iris_service_coalesced_total");
    report.check(
        "writes_accounted",
        applied + coalesced == w.lat.count as f64,
        format!(
            "{applied} applied + {coalesced} coalesced of {} acknowledged writes",
            w.lat.count
        ),
    );
    report.set("service.writes_applied", applied, 1);
    report.set(
        "service.coalesce_ratio",
        coalesced / w.lat.count.max(1) as f64,
        1,
    );
    report.set(
        "service.group_commit_batches",
        c("iris_service_group_commit_batches"),
        1,
    );
    let size = HistDelta::between(&before, &after, "iris_service_group_commit_size");
    report.set("service.group_commit_size.mean", size.mean(), size.count);
    report.set("service.fsyncs_saved", c("iris_service_fsyncs_saved"), 1);
    let fsync = HistDelta::between(&before, &after, "iris_service_wal_fsync_ms");
    report.set("service.wal_fsync_ms.p50", fsync.quantile(0.5), fsync.count);
    report.set(
        "service.wal_fsync_ms.p99",
        fsync.quantile(0.99),
        fsync.count,
    );
    report.set(
        "service.wal_records",
        c("iris_service_wal_records_total"),
        1,
    );
    report.set("service.wal_bytes", c("iris_service_wal_bytes_total"), 1);
    report.set(
        "service.queue_depth.max",
        w.max_queue_depth as f64,
        w.lat.count as u64,
    );
    report.set("service.overloaded", c("iris_service_overloaded_total"), 1);
    let reconf = HistDelta::between(&before, &after, "iris_control_reconfigure_wall_ms");
    report.set(
        "control.reconfigure_wall_ms.p50",
        reconf.quantile(0.5),
        reconf.count,
    );
    report.set(
        "control.reconfigure_wall_ms.p99",
        reconf.quantile(0.99),
        reconf.count,
    );
    report.set("control.reconfigs", c("iris_control_reconfigs_total"), 1);

    let plain = plain_pass.expect("a traced run has an untraced pass");
    report.set(
        "accounting.trace_overhead",
        r.wall_s / plain.wall_s - 1.0,
        1,
    );
    // The reader's blocking path is its calls; the rest of its time is
    // the client loop itself.
    report.set(
        "accounting.uncovered_share",
        1.0 - r.lat.sum_ms / (r.wall_s * 1e3),
        r.lat.count as u64,
    );
    wire_replay(&mut report, &r.captured)?;

    // Recovery read cost: the run's log read back, then re-appended
    // with fsync into a fresh log.
    let records_written = stats::registry()
        .counters
        .get("iris_service_wal_records_total")
        .copied()
        .unwrap_or(0);
    let Server { handle, dir, .. } = srv;
    drop(handle);
    let log = dir.join(WAL_FILE);
    let mut read_s = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        batches = read_log(&log).map_err(|e| e.to_string())?.0;
        read_s.push(t.elapsed().as_secs_f64());
    }
    report.check(
        "wal_read_back",
        batches.len() as u64 == records_written,
        format!(
            "{} records read back, {records_written} written",
            batches.len()
        ),
    );
    report.set(
        "service.wal.read_log_s",
        median(&read_s),
        read_s.len() as u64,
    );
    let fresh = ctx
        .run_dir
        .join(format!("serve-rw-{}-reappend", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh);
    let (mut wal, _) = Wal::open(&fresh).map_err(|e| e.to_string())?;
    let mut append_ms = Vec::new();
    for b in batches.iter().take(REAPPEND) {
        let t = Instant::now();
        wal.append(b).map_err(|e| e.to_string())?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(wal);
    report.set(
        "service.wal.append_sync_ms.p50",
        median(&append_ms),
        append_ms.len() as u64,
    );
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&dir);

    let spans = tracer.take();
    let out = ctx
        .run_dir
        .join(format!("serve-rw-seed{}.spans.jsonl", ctx.seed));
    crate::spans::Tracer::write(&spans, &out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(report)
}
