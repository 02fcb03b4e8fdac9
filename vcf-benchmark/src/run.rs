//! The end-to-end run: set-up, open loop, closed loop, the FPR probe,
//! and the correctness gate.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vcf_analysis::{fpr_upper_bound, p_four_standard};
use vcf_server::protocol::status;
use vcf_server::{Client, Endpoint, OpCode, Reply, ServerConfig, ServerHandle};

use crate::engine::{server_config, Engine, Prefilled};
use crate::gen::{FrameGen, Shape};
use crate::hist::Histogram;
use crate::report::{median, ratio, Outcome};
use crate::workload::{Plan, CONNECTIONS, PROBE_FRAME_KEYS};

/// Sends one request frame and returns its reply: the wire client, or
/// an in-process stand-in for the trace's socket-free pass.
pub trait Transport: Send {
    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// Transport failures; the connection is unusable afterwards.
    fn exchange(&mut self, opcode: OpCode, keys: &[u64]) -> io::Result<Reply>;
}

impl Transport for Client {
    fn exchange(&mut self, opcode: OpCode, keys: &[u64]) -> io::Result<Reply> {
        self.request(opcode, keys)
    }
}

/// What a connection sent and what came back, checked key by key.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Data frames sent.
    pub frames: u64,
    /// Frames answered with a non-OK status or a wrong count.
    pub error_frames: u64,
    /// Keys sent.
    pub keys: u64,
    /// Keys in error frames.
    pub error_keys: u64,
    /// Lookups of acknowledged, undeleted keys.
    pub live_lookups: u64,
    /// Of those, answered 0.
    pub false_negatives: u64,
    /// Lookups of never-inserted keys.
    pub negatives: u64,
    /// Of those, answered 1.
    pub false_positives: u64,
    /// Insert keys sent.
    pub inserts: u64,
    /// Insert keys answered 1.
    pub inserts_acked: u64,
    /// Delete keys sent (all acknowledged earlier).
    pub deletes: u64,
    /// Delete keys answered 1.
    pub deletes_acked: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.frames += o.frames;
        self.error_frames += o.error_frames;
        self.keys += o.keys;
        self.error_keys += o.error_keys;
        self.live_lookups += o.live_lookups;
        self.false_negatives += o.false_negatives;
        self.negatives += o.negatives;
        self.false_positives += o.false_positives;
        self.inserts += o.inserts;
        self.inserts_acked += o.inserts_acked;
        self.deletes += o.deletes;
        self.deletes_acked += o.deletes_acked;
    }
}

impl Tally {
    /// Inserts the filter refused.
    #[must_use]
    pub fn inserts_refused(&self) -> u64 {
        self.inserts - self.inserts_acked
    }

    /// Deletes of acknowledged keys that found nothing: a lost key.
    #[must_use]
    pub fn deletes_missed(&self) -> u64 {
        self.deletes - self.deletes_acked
    }
}

/// One connection: its frame generator, the keys the filter refused,
/// and the running tally.
pub struct Conn<T> {
    pub(crate) link: T,
    pub(crate) gen: FrameGen,
    pub(crate) keys: Vec<u64>,
    refused: HashSet<u64>,
    /// Everything sent and checked so far.
    pub tally: Tally,
}

/// Open-loop latency and generator lateness.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Reply time minus due time, per frame.
    pub latency: Histogram,
    /// Send time minus due time, for frames the generator was free to
    /// send on time (its previous reply had arrived).
    pub send_lag: Histogram,
}

impl<T: Transport> Conn<T> {
    /// A connection over `link` drawing frames from `gen`; `refused` are
    /// the prefill keys the filter did not store.
    pub fn new(link: T, gen: FrameGen, refused: &[u64]) -> Self {
        Self {
            link,
            gen,
            keys: Vec::new(),
            refused: refused.iter().copied().collect(),
            tally: Tally::default(),
        }
    }

    /// Sends the frame in the key buffer and checks the reply.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, shape: Shape) -> io::Result<()> {
        if matches!(shape, Shape::Delete | Shape::TailDelete) && !self.refused.is_empty() {
            let refused = &mut self.refused;
            self.keys.retain(|k| !refused.remove(k));
        }
        if self.keys.is_empty() {
            return Ok(());
        }
        let sent = self.keys.len() as u64;
        self.tally.frames += 1;
        self.tally.keys += sent;
        let reply = self.link.exchange(shape.opcode(), &self.keys)?;
        if reply.status != status::OK || u64::from(reply.count) != sent {
            self.tally.error_frames += 1;
            self.tally.error_keys += sent;
            return Ok(());
        }
        let t = &mut self.tally;
        match shape {
            Shape::Insert | Shape::TailInsert => {
                t.inserts += sent;
                for (i, &key) in self.keys.iter().enumerate() {
                    if reply.bit(i) {
                        t.inserts_acked += 1;
                    } else {
                        self.refused.insert(key);
                    }
                }
            }
            Shape::Delete | Shape::TailDelete => {
                t.deletes += sent;
                t.deletes_acked += (0..self.keys.len()).filter(|&i| reply.bit(i)).count() as u64;
            }
            Shape::Lookup | Shape::Probe => {
                for (i, &key) in self.keys.iter().enumerate() {
                    if self.gen.space().is_probe(key) {
                        t.negatives += 1;
                        t.false_positives += u64::from(reply.bit(i));
                    } else if !self.refused.contains(&key) {
                        t.live_lookups += 1;
                        t.false_negatives += u64::from(!reply.bit(i));
                    }
                }
            }
        }
        Ok(())
    }

    /// Sends `frames` frames of the workload back to back.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn closed(&mut self, frames: usize) -> io::Result<()> {
        for _ in 0..frames {
            let shape = self.gen.next_frame(&mut self.keys);
            self.send(shape)?;
        }
        Ok(())
    }

    /// Looks up `keys` never-inserted keys in full-size frames.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn probe(&mut self, keys: usize) -> io::Result<()> {
        for _ in 0..keys.div_ceil(PROBE_FRAME_KEYS) {
            self.gen
                .fill(Shape::Probe, PROBE_FRAME_KEYS, &mut self.keys);
            self.send(Shape::Probe)?;
        }
        Ok(())
    }

    /// Sends frame `i` at `start + i·period`, sleeping until it is due,
    /// and times each reply from that due time.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn open(
        &mut self,
        start: Instant,
        period: Duration,
        frames: usize,
    ) -> io::Result<OpenLoop> {
        let mut out = OpenLoop::default();
        let mut free_at = start;
        for i in 0..frames {
            let due = start + period.mul_f64(i as f64);
            let shape = self.gen.next_frame(&mut self.keys);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if free_at <= due {
                out.send_lag
                    .record_duration(Instant::now().saturating_duration_since(due));
            }
            self.send(shape)?;
            free_at = Instant::now();
            out.latency
                .record_duration(free_at.saturating_duration_since(due));
        }
        Ok(out)
    }
}

/// Runs `f` on every connection, each on its own thread, and returns
/// the results in connection order.
///
/// # Errors
///
/// The first connection's error.
///
/// # Panics
///
/// Propagates a panic of a connection thread.
pub fn on_each<T, R, F>(conns: &mut [Conn<T>], f: F) -> io::Result<Vec<R>>
where
    T: Transport,
    R: Send,
    F: Fn(usize, &mut Conn<T>) -> io::Result<R> + Sync,
{
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || f(i, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    })
}

/// Sum of the connections' tallies.
#[must_use]
pub fn total<T>(conns: &[Conn<T>]) -> Tally {
    let mut sum = Tally::default();
    for conn in conns {
        sum += conn.tally;
    }
    sum
}

/// Connection `conn`'s generator over its share of the prefill.
#[must_use]
pub fn frame_gen(plan: &Plan, seed: u64, conn: usize, prefilled: &Prefilled) -> FrameGen {
    let w = plan.workload;
    FrameGen::new(seed, conn, w.cycle, w.keys_per_frame, 0..prefilled.per_conn)
}

/// Opens every connection to `endpoint`.
///
/// # Errors
///
/// Connect failures.
pub fn connect_all(
    plan: &Plan,
    seed: u64,
    prefilled: &Prefilled,
    endpoint: &Endpoint,
) -> io::Result<Vec<Conn<Client>>> {
    (0..CONNECTIONS)
        .map(|c| {
            let gen = frame_gen(plan, seed, c, prefilled);
            Ok(Conn::new(
                Client::connect(endpoint)?,
                gen,
                &prefilled.refused[c],
            ))
        })
        .collect()
}

/// The socket path of one server of a run, unique per process,
/// workload and pass.
#[must_use]
pub fn socket_path(out_dir: &Path, plan: &Plan, label: &str) -> PathBuf {
    out_dir.join(format!(
        "{}-{}-{label}.sock",
        std::process::id(),
        plan.workload.name
    ))
}

/// Builds, prefills and serves an engine.
///
/// # Errors
///
/// Bind failures.
pub fn serve(
    plan: &Plan,
    config: &ServerConfig,
    seed: u64,
) -> io::Result<(Prefilled, ServerHandle)> {
    let prefilled = Engine::build(plan, config, seed);
    let server = ServerHandle::spawn_with_engine(config, prefilled.engine.shard_engine())?;
    Ok((prefilled, server))
}

/// Runs the open-loop phase over every connection.
///
/// # Errors
///
/// Transport failures.
pub fn open_phase<T: Transport>(plan: &Plan, conns: &mut [Conn<T>]) -> io::Result<OpenLoop> {
    let n = conns.len().max(1);
    let period = Duration::from_secs_f64(n as f64 / plan.open_rate);
    let per_conn = plan.open_frames / n;
    let start = Instant::now() + Duration::from_millis(2);
    let loops = on_each(conns, |c, conn| {
        conn.open(
            start + period.mul_f64(c as f64 / n as f64),
            period,
            per_conn,
        )
    })?;
    let mut merged = OpenLoop::default();
    for l in &loops {
        merged.latency.merge(&l.latency);
        merged.send_lag.merge(&l.send_lag);
    }
    Ok(merged)
}

/// Runs the closed-loop phase over every connection; returns keys per
/// second.
///
/// # Errors
///
/// Transport failures.
pub fn closed_phase<T: Transport>(plan: &Plan, conns: &mut [Conn<T>]) -> io::Result<f64> {
    let before = total(conns).keys;
    let per_conn = plan.closed_frames / conns.len().max(1);
    let started = Instant::now();
    on_each(conns, |_, conn| conn.closed(per_conn))?;
    let secs = started.elapsed().as_secs_f64();
    Ok((total(conns).keys - before) as f64 / secs)
}

/// The wire `Stats` frame's `(len, capacity)`.
///
/// # Errors
///
/// Transport failures or a malformed reply.
pub fn wire_occupancy(endpoint: &Endpoint) -> io::Result<(u64, u64)> {
    let words = Client::connect(endpoint)?.stats()?;
    Ok((words[0], words[1]))
}

/// The gate's checks that hold for every run: no false negatives, exact
/// occupancy, no error frames and, on fixed-capacity tables, an FPR
/// within twice the model's upper bound.
pub fn gate(
    out: &mut Outcome,
    plan: &Plan,
    config: &ServerConfig,
    t: &Tally,
    wire: (u64, u64),
    stored: u64,
) {
    let (len, capacity) = wire;
    out.check(
        "zero-false-negatives",
        t.false_negatives == 0 && t.deletes_missed() == 0,
        format!(
            "{} of {} live lookups answered 0, {} of {} deletes of acknowledged keys found nothing",
            t.false_negatives,
            t.live_lookups,
            t.deletes_missed(),
            t.deletes
        ),
    );
    let expected = stored + t.inserts_acked - t.deletes_acked;
    out.check(
        "exact-occupancy",
        len == expected,
        format!(
            "wire len {len}, prefill {stored} + inserts {} - deletes {} = {expected}",
            t.inserts_acked, t.deletes_acked
        ),
    );
    out.check(
        "no-frame-errors",
        t.error_frames == 0,
        format!("{} of {} frames failed", t.error_frames, t.frames),
    );
    if !plan.workload.elastic {
        let cuckoo = config.cuckoo_config();
        let alpha = ratio(len as f64, capacity as f64);
        let f = cuckoo.fingerprint_bits;
        let limit = 2.0 * fpr_upper_bound(p_four_standard(f), cuckoo.slots_per_bucket, alpha, f);
        let fpr = ratio(t.false_positives as f64, t.negatives as f64);
        out.check(
            "fpr-within-model",
            fpr <= limit,
            format!("fpr {fpr:.3e} vs 2 x model bound {limit:.3e} at load {alpha:.4}"),
        );
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One end-to-end run of `plan`: every end-to-end metric and the gate.
///
/// # Errors
///
/// Socket and transport failures.
pub fn run(plan: &Plan, seed: u64, out_dir: &Path) -> io::Result<Outcome> {
    let config = server_config(plan, socket_path(out_dir, plan, "e2e"));
    let mut setups = Vec::with_capacity(plan.setup_reps);
    let mut served = None;
    for _ in 0..plan.setup_reps.max(1) {
        // Tear the previous set-up down first so only one engine lives.
        drop(served.take());
        let started = Instant::now();
        served = Some(serve(plan, &config, seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (prefilled, mut server) = served.expect("at least one set-up");
    let mut conns = connect_all(plan, seed, &prefilled, server.endpoint())?;

    let open = open_phase(plan, &mut conns)?;
    let probe_per_conn = plan.probe_keys / CONNECTIONS;
    on_each(&mut conns, |_, conn| conn.probe(probe_per_conn))?;
    let wire = wire_occupancy(server.endpoint())?;
    let t = total(&conns);
    drop(conns);
    server.shutdown();

    let mut out = Outcome::default();
    let lat = &open.latency;
    out.push("setup_s", median(&setups), "s");
    out.push("p50_us", lat.quantile_us(0.5), "us");
    out.push(
        "fpr",
        ratio(t.false_positives as f64, t.negatives as f64),
        "fraction",
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.notes = vec![
        format!(
            "open loop: {} samples at {} frames/s; p90 {:.1} us ({} beyond), \
             p99 {:.1} us ({} beyond); tails are per-layer, too noisy to gate",
            lat.count(),
            plan.open_rate,
            lat.quantile_us(0.9),
            lat.beyond(0.9),
            lat.quantile_us(0.99),
            lat.beyond(0.99)
        ),
        format!(
            "fpr: {} of {} never-inserted keys",
            t.false_positives, t.negatives
        ),
        format!("set-ups: {setups:?} s"),
        format!(
            "insert_fail_frac {:.3e}, frame_error_frac {:.3e}",
            ratio(t.inserts_refused() as f64, t.inserts as f64),
            ratio(t.error_frames as f64, t.frames as f64)
        ),
    ];
    gate(&mut out, plan, &config, &t, wire, prefilled.stored);
    out.attempted = t.keys;
    out.failed = t.inserts_refused() + t.error_keys;
    Ok(out)
}
