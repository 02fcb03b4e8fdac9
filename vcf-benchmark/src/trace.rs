//! The traced run: per-layer numbers, timed from outside each layer.
//!
//! Three passes start from identical fresh set-ups and send the same
//! one-connection frame sequence (the workload's frames plus an
//! op-coverage tail that inserts fresh keys and deletes them again, so
//! every workload reports insert and delete costs):
//!
//! * **A** — the plain engine behind the server. Gives the socket round
//!   trip per frame, `stats()` deltas and the elastic segment samples;
//!   then the open and closed loops over every connection give the load
//!   generator's numbers and the saturated throughput.
//! * **B** — the same engine wrapped in [`TracedEngine`] behind a second
//!   server. Its spans give the core layer's per-key costs; its
//!   slowdown over A is `trace.overhead_pct`.
//! * **C** — `ShardExecutor::execute` driven in-process over a traced
//!   twin, no socket: the executor's time and self time.
//!
//! The three passes take turns in chunks of [`CHUNK`] frames, so load
//! from other tenants of the machine falls on all of them alike; the
//! chunks are long enough for each pass to reach its steady state. The
//! codec is then timed alone on the same frames. Spans of B and C are
//! written as JSON lines when the run ends.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vcf_server::codec::{encode_request, encode_response};
use vcf_server::protocol::{bitmap_len, status};
use vcf_server::{
    Client, ExecScratch, Frame, FrameReader, OpCode, Reply, ServerHandle, ShardExecutor,
};
use vcf_traits::{BatchOpKind, Stats};

use crate::engine::{server_config, since, Engine, ShardSpan, TracedEngine};
use crate::gen::{FrameGen, Shape};
use crate::hist::Histogram;
use crate::report::{median, ratio, Outcome};
use crate::run::{
    closed_phase, connect_all, frame_gen, gate, open_phase, serve, socket_path, total,
    wire_occupancy, Conn, Transport,
};
use crate::workload::{Plan, CONNECTIONS};

/// Frames the isolated codec and routing timings run over.
const CODEC_FRAMES: usize = 2048;
/// Repetitions of each isolated timing; the median is reported.
const REPS: usize = 5;
/// Frames each pass sends per turn. Turns of 64 frames raised the
/// in-process executor's time per frame on `small-frames` from about 15
/// to 25 µs; turns of 1024 frames leave it near its value when run alone.
const CHUNK: usize = 1024;

/// One client-side frame: sent at `start_ns`, answered at `end_ns`.
#[derive(Debug, Clone, Copy)]
struct FrameSpan {
    shape: Shape,
    keys: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Frames in the one-connection traced sequence.
fn trace_len(plan: &Plan) -> usize {
    plan.trace_frames + 2 * tail_frames(plan)
}

fn tail_frames(plan: &Plan) -> usize {
    plan.tail_keys.div_ceil(plan.workload.keys_per_frame)
}

/// Frame `i` of the traced sequence: the workload's frames, then the
/// tail's inserts, then its deletes.
fn trace_frame(gen: &mut FrameGen, plan: &Plan, i: usize, keys: &mut Vec<u64>) -> Shape {
    if i < plan.trace_frames {
        return gen.next_frame(keys);
    }
    let shape = if i < plan.trace_frames + tail_frames(plan) {
        Shape::TailInsert
    } else {
        Shape::TailDelete
    };
    gen.fill(shape, plan.workload.keys_per_frame, keys);
    shape
}

impl<T: Transport> Conn<T> {
    /// Sends frames `frames` of the traced sequence (in order, resuming
    /// where the previous call stopped), appending a span per frame to
    /// `spans` and calling `after` once each reply is in.
    fn traced(
        &mut self,
        plan: &Plan,
        frames: Range<usize>,
        epoch: Instant,
        spans: &mut Vec<FrameSpan>,
        mut after: impl FnMut(),
    ) -> io::Result<()> {
        for i in frames {
            let shape = trace_frame(&mut self.gen, plan, i, &mut self.keys);
            let start = Instant::now();
            self.send(shape)?;
            let end = Instant::now();
            spans.push(FrameSpan {
                shape,
                keys: self.keys.len(),
                start_ns: since(epoch, start),
                end_ns: since(epoch, end),
            });
            after();
        }
        Ok(())
    }
}

/// `ShardExecutor::execute` behind the [`Transport`] interface, timing
/// each call.
struct InProcess {
    exec: ShardExecutor,
    scratch: ExecScratch,
    payload: Vec<u8>,
    epoch: Instant,
    spans: Vec<(u64, u64)>,
}

impl Transport for InProcess {
    fn exchange(&mut self, opcode: OpCode, keys: &[u64]) -> io::Result<Reply> {
        let op = opcode
            .batch_kind()
            .ok_or_else(|| io::Error::other("control frame in a traced run"))?;
        self.payload.clear();
        self.payload
            .extend(keys.iter().flat_map(|k| k.to_le_bytes()));
        let mut bitmap = vec![0u8; bitmap_len(keys.len())];
        let start = Instant::now();
        self.exec
            .execute(op, &self.payload, &mut self.scratch, &mut bitmap)
            .map_err(|_| io::Error::other("executor down"))?;
        let end = Instant::now();
        self.spans
            .push((since(self.epoch, start), since(self.epoch, end)));
        Ok(Reply {
            status: status::OK,
            count: keys.len() as u32,
            payload: bitmap,
        })
    }
}

/// Child spans of each parent interval, for intervals that never
/// overlap (one frame in flight): `(parent index, child)` pairs.
fn nest(parents: &[(u64, u64)], children: &[ShardSpan]) -> Vec<Vec<ShardSpan>> {
    let mut sorted = children.to_vec();
    sorted.sort_by_key(|s| s.start_ns);
    let mut out = vec![Vec::new(); parents.len()];
    let mut p = 0;
    for child in sorted {
        while p < parents.len() && parents[p].1 < child.end_ns {
            p += 1;
        }
        if let Some(&(start, _)) = parents.get(p) {
            if start <= child.start_ns {
                out[p].push(child);
            }
        }
    }
    out
}

/// Nanoseconds of `[start, end)` covered by the union of `spans`.
fn covered(spans: &[ShardSpan]) -> u64 {
    let mut v: Vec<(u64, u64)> = spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    v.sort_unstable();
    let (mut sum, mut reach) = (0, 0);
    for (start, end) in v {
        let start = start.max(reach);
        if end > start {
            sum += end - start;
            reach = end;
        }
    }
    sum
}

/// Median over [`REPS`] runs of `f`, in nanoseconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Per-op `(ns per key, keys)` over the spans of one op.
fn per_key_ns(spans: &[ShardSpan], op: BatchOpKind) -> f64 {
    let (ns, keys) = spans
        .iter()
        .filter(|s| s.op == op)
        .fold((0u64, 0usize), |(ns, keys), s| {
            (ns + (s.end_ns - s.start_ns), keys + s.keys)
        });
    ratio(ns as f64, keys as f64)
}

fn frame_total_ns(frames: &[FrameSpan]) -> f64 {
    frames.iter().map(|f| (f.end_ns - f.start_ns) as f64).sum()
}

/// Writes one pass's frames, each followed by its nested shard spans, as
/// JSON lines.
fn write_pass(
    w: &mut impl Write,
    pass: &str,
    frames: &[FrameSpan],
    nested: &[Vec<ShardSpan>],
) -> io::Result<()> {
    for (id, (f, children)) in frames.iter().zip(nested).enumerate() {
        writeln!(
            w,
            "{{\"pass\": \"{pass}\", \"kind\": \"frame\", \"id\": {id}, \"op\": \"{:?}\", \"keys\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            f.shape, f.keys, f.start_ns, f.end_ns
        )?;
        for s in children {
            writeln!(
                w,
                "{{\"pass\": \"{pass}\", \"kind\": \"shard\", \"frame\": {id}, \"op\": \"{}\", \"shard\": {}, \"keys\": {}, \"start_ns\": {}, \"end_ns\": {}, \"thread\": {}}}",
                s.op.label(), s.shard, s.keys, s.start_ns, s.end_ns, s.thread
            )?;
        }
    }
    Ok(())
}

/// One traced run of `plan`: every per-layer metric, the gate over pass
/// A, and the span file `spans-<workload>-<seed>.jsonl` in `out_dir`.
///
/// # Errors
///
/// Socket, transport and file failures.
pub fn run(plan: &Plan, seed: u64, out_dir: &Path) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut out = Outcome::default();

    // Three twins built from the same seed take turns, CHUNK frames at a
    // time, one connection each: A plain behind a server, B traced behind
    // a second server, C traced behind the executor alone.
    let config = server_config(plan, socket_path(out_dir, plan, "trace-a"));
    let (a, mut server_a) = serve(plan, &config, seed)?;
    let config_b = server_config(plan, socket_path(out_dir, plan, "trace-b"));
    let b = Engine::build(plan, &config_b, seed);
    let traced_b = Arc::new(TracedEngine::new(b.engine.shard_engine(), epoch));
    let mut server_b = ServerHandle::spawn_with_engine(&config_b, Arc::clone(&traced_b) as _)?;
    let c = Engine::build(plan, &config, seed);
    let traced_c = Arc::new(TracedEngine::new(c.engine.shard_engine(), epoch));
    let exec = ShardExecutor::new(Arc::clone(&traced_c) as _, CONNECTIONS);
    let link_c = InProcess {
        scratch: exec.scratch(),
        exec,
        payload: Vec::new(),
        epoch,
        spans: Vec::with_capacity(trace_len(plan)),
    };
    let mut conns = connect_all(plan, seed, &a, server_a.endpoint())?;
    let link_b = Client::connect(server_b.endpoint())?;
    let mut conn_b = Conn::new(link_b, frame_gen(plan, seed, 0, &b), &b.refused[0]);
    let mut conn_c = Conn::new(link_c, frame_gen(plan, seed, 0, &c), &c.refused[0]);
    let stats_before = a.engine.stats();
    let (mut segments_max, mut backlog_max) = (0, 0);
    let (mut plain, mut traced, mut in_process) = (Vec::new(), Vec::new(), Vec::new());
    for start in (0..trace_len(plan)).step_by(CHUNK) {
        let chunk = start..(start + CHUNK).min(trace_len(plan));
        conns[0].traced(plan, chunk.clone(), epoch, &mut plain, || {
            segments_max = segments_max.max(a.engine.segments_max());
            backlog_max = backlog_max.max(a.engine.migration_backlog());
        })?;
        conn_b.traced(plan, chunk.clone(), epoch, &mut traced, || {})?;
        conn_c.traced(plan, chunk, epoch, &mut in_process, || {})?;
    }
    let stats_after = a.engine.stats();
    drop(conn_b);
    server_b.shutdown();
    let spans_b = traced_b.take_spans();
    let exec_spans = std::mem::take(&mut conn_c.link.spans);
    drop(conn_c);
    let nested_c = nest(&exec_spans, &traced_c.take_spans());
    drop((b, c));

    // Pass A goes on with the open and closed loops.
    let open = open_phase(plan, &mut conns)?;
    let closed_kops = closed_phase(plan, &mut conns)? / 1e3;
    let wire = wire_occupancy(server_a.endpoint())?;
    let t = total(&conns);
    let load_factor_end = a.engine.load_factor();
    drop(conns);
    server_a.shutdown();
    gate(&mut out, plan, &config, &t, wire, a.stored);
    // The codec and the router, alone, on the first frames.
    let mut gen = frame_gen(plan, seed, 0, &a);
    let mut frames: Vec<(OpCode, Vec<u64>)> = Vec::new();
    for i in 0..trace_len(plan).min(CODEC_FRAMES) {
        let mut keys = Vec::new();
        let shape = trace_frame(&mut gen, plan, i, &mut keys);
        frames.push((shape.opcode(), keys));
    }
    let mut wire_bytes = Vec::new();
    for (opcode, keys) in &frames {
        encode_request(&mut wire_bytes, *opcode, keys);
    }
    let n_frames = frames.len() as f64;
    let n_keys: usize = frames.iter().map(|f| f.1.len()).sum();
    let decode_ns = timed(|| {
        let mut reader = FrameReader::new(&wire_bytes[..]);
        while let Ok(Frame::Request { payload, .. }) = reader.read_frame() {
            black_box(payload);
        }
    }) / n_frames;
    let bitmap = vec![0xA5u8; bitmap_len(vcf_server::MAX_BATCH as usize)];
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let mut response_bytes = 0;
    let encode_ns = timed(|| {
        response_bytes = 0;
        for (opcode, keys) in &frames {
            req.clear();
            resp.clear();
            encode_request(&mut req, *opcode, keys);
            let n = keys.len();
            encode_response(&mut resp, status::OK, n as u32, &bitmap[..bitmap_len(n)]);
            response_bytes += resp.len();
            black_box((&req, &resp));
        }
    }) / n_frames;
    let engine = a.engine.shard_engine();
    let route_ns = timed(|| {
        for (_, keys) in &frames {
            for key in keys {
                black_box(engine.shard_of(&key.to_le_bytes()));
            }
        }
    }) / n_keys.max(1) as f64;

    // Per-layer numbers.
    let frames_c = in_process.len() as f64;
    let execute_ns: f64 = exec_spans.iter().map(|&(s, e)| (e - s) as f64).sum();
    let self_ns: f64 = exec_spans
        .iter()
        .zip(&nested_c)
        .map(|(&(s, e), kids)| (e - s).saturating_sub(covered(kids)) as f64)
        .sum();
    let runs: usize = nested_c.iter().map(Vec::len).sum();
    let workers: usize = nested_c
        .iter()
        .map(|kids| {
            let mut threads: Vec<usize> = kids.iter().map(|s| s.thread).collect();
            threads.sort_unstable();
            threads.dedup();
            threads.len()
        })
        .sum();
    let mut insert_runs = Histogram::new();
    for s in spans_b.iter().filter(|s| s.op == BatchOpKind::Insert) {
        insert_runs.record(s.end_ns - s.start_ns);
    }
    let rtt_ns = frame_total_ns(&plain) / plain.len().max(1) as f64;
    let lat = &open.latency;
    // Counter deltas over pass A's one-connection sequence.
    let d = |f: fn(&Stats) -> u64| f(&stats_after).saturating_sub(f(&stats_before)) as f64;
    let inserts = d(|s| s.inserts.calls);
    let lookups = d(|s| s.lookups.calls);

    out.push("loadgen.closed_kops", closed_kops, "kkeys/s");
    out.push("loadgen.p99_us", lat.quantile_us(0.99), "us");
    out.push("loadgen.p999_us", lat.quantile_us(0.999), "us");
    out.push("loadgen.open_samples", lat.count() as f64, "count");
    out.push(
        "loadgen.send_lag_p99_us",
        open.send_lag.quantile_us(0.99),
        "us",
    );
    out.push(
        "loadgen.insert_fail_frac",
        ratio(t.inserts_refused() as f64, t.inserts as f64),
        "fraction",
    );
    out.push(
        "loadgen.frame_error_frac",
        ratio(t.error_frames as f64, t.frames as f64),
        "fraction",
    );
    out.push("codec.decode_ns_per_frame", decode_ns, "ns");
    out.push("codec.encode_ns_per_frame", encode_ns, "ns");
    out.push(
        "codec.wire_bytes_per_key",
        ratio((wire_bytes.len() + response_bytes) as f64, n_keys as f64),
        "bytes",
    );
    out.push("executor.route_ns_per_key", route_ns, "ns");
    out.push(
        "executor.execute_us_per_frame",
        execute_ns / frames_c / 1e3,
        "us",
    );
    out.push("executor.self_us_per_frame", self_ns / frames_c / 1e3, "us");
    out.push(
        "executor.shard_runs_per_frame",
        runs as f64 / frames_c,
        "count",
    );
    out.push(
        "executor.workers_per_frame",
        workers as f64 / frames_c,
        "count",
    );
    out.push(
        "server.socket_us_per_frame",
        (rtt_ns - execute_ns / frames_c - decode_ns - encode_ns) / 1e3,
        "us",
    );
    out.push(
        "core.lookup_ns_per_key",
        per_key_ns(&spans_b, BatchOpKind::Lookup),
        "ns",
    );
    out.push(
        "core.insert_ns_per_key",
        per_key_ns(&spans_b, BatchOpKind::Insert),
        "ns",
    );
    out.push(
        "core.delete_ns_per_key",
        per_key_ns(&spans_b, BatchOpKind::Delete),
        "ns",
    );
    out.push(
        "core.insert_run_p99_us",
        insert_runs.quantile_us(0.99),
        "us",
    );
    out.push(
        "core.kicks_per_insert",
        ratio(d(|s| s.kicks), inserts),
        "count",
    );
    out.push("core.failed_inserts", d(|s| s.failed_inserts), "count");
    out.push("core.load_factor_end", load_factor_end, "fraction");
    out.push("core.segments_max", segments_max as f64, "count");
    out.push("core.migration_backlog_max", backlog_max as f64, "count");
    out.push(
        "table.probes_per_lookup",
        ratio(d(|s| s.lookups.slot_probes), lookups),
        "count",
    );
    out.push(
        "table.buckets_per_lookup",
        ratio(d(|s| s.lookups.bucket_accesses), lookups),
        "count",
    );
    out.push(
        "table.buckets_per_insert",
        ratio(d(|s| s.inserts.bucket_accesses), inserts),
        "count",
    );
    out.push(
        "hash.per_insert",
        ratio(d(|s| s.hash_computations), inserts),
        "count",
    );
    out.push(
        "trace.overhead_pct",
        (frame_total_ns(&traced) / frame_total_ns(&plain) - 1.0) * 100.0,
        "%",
    );

    let spans_path = out_dir.join(format!("spans-{}-{seed}.jsonl", plan.workload.name));
    let nested_b = nest(
        &traced
            .iter()
            .map(|f| (f.start_ns, f.end_ns))
            .collect::<Vec<_>>(),
        &spans_b,
    );
    let mut w = BufWriter::new(File::create(&spans_path)?);
    write_pass(&mut w, "socket", &traced, &nested_b)?;
    write_pass(&mut w, "executor", &in_process, &nested_c)?;
    w.flush()?;
    out.notes = vec![
        format!(
            "open loop: {} samples, p99.9 has {} beyond it",
            lat.count(),
            lat.beyond(0.999)
        ),
        format!(
            "one-connection passes: {} frames, {} engine spans traced",
            plain.len(),
            spans_b.len()
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    out.attempted = t.keys;
    out.failed = t.inserts_refused() + t.error_keys;
    Ok(out)
}
