//! The four workloads and how much work a run of each does.
//!
//! Every phase is a fixed amount of work derived from `--seconds` and
//! the constants below, never from a measured speed, so a parent and a
//! change commit run exactly the same frames. The constants were sized
//! on the reference machine (2 vCPU Xeon, 4 MiB L2 per core): the
//! open-loop rate is about half the closed-loop throughput there,
//! rounded down.

use crate::gen::Shape;

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Length of the traced run's closed-loop phase as a share of
/// `--seconds`, at the reference machine's closed-loop throughput.
pub const CLOSED_SHARE: f64 = 0.4;

/// Client connections (and server workers): one per core of the
/// reference machine.
pub const CONNECTIONS: usize = 2;

/// log2 of the server's shard count.
pub const SHARD_BITS: u32 = 4;

/// Keys per frame of the false-positive probe that ends every run.
pub const PROBE_FRAME_KEYS: usize = 256;

/// One named traffic mix over one engine.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Serve the elastic `ShardedScalableVcf` instead of the fixed one.
    pub elastic: bool,
    /// log2 of the total slot count (the base size when elastic).
    pub slots_log2: u32,
    /// Share of the slots filled before the server starts.
    pub prefill: f64,
    /// Keys per data frame.
    pub keys_per_frame: usize,
    /// The repeating per-connection frame cycle.
    pub cycle: &'static [Shape],
    /// Open-loop offered rate, frames per second over all connections.
    pub open_rate: f64,
    /// Closed-loop throughput on the reference machine, frames per
    /// second over all connections; sizes the traced closed loop.
    pub closed_rate: f64,
    /// Set-ups per run; the reported `setup_s` is their median.
    pub setup_reps: usize,
}

/// The benchmark's workloads, in report order.
pub static WORKLOADS: &[Workload] = &[
    // Probe work over a table 12× the L2 dominates: 256 keys spread the
    // per-frame transport cost thin.
    Workload {
        name: "lookup-cold",
        elastic: false,
        slots_log2: 24,
        prefill: 0.90,
        keys_per_frame: 256,
        cycle: &[Shape::Lookup],
        open_rate: 4_500.0,
        closed_rate: 9_500.0,
        setup_reps: 3,
    },
    // The write path at 95% load: kick chains, seqlock relocation and
    // deletes on the same core layer lookup-cold reads.
    Workload {
        name: "churn-95",
        elastic: false,
        slots_log2: 22,
        prefill: 0.95,
        keys_per_frame: 256,
        cycle: &[Shape::Delete, Shape::Insert, Shape::Lookup],
        open_rate: 3_500.0,
        closed_rate: 7_500.0,
        setup_reps: 3,
    },
    // Per-frame costs dominate: 8 cache-hot keys per frame, split over
    // both workers in almost every frame.
    Workload {
        name: "small-frames",
        elastic: false,
        slots_log2: 18,
        prefill: 0.50,
        keys_per_frame: 8,
        cycle: &[Shape::Lookup, Shape::Insert, Shape::Lookup, Shape::Delete],
        open_rate: 22_000.0,
        closed_rate: 45_000.0,
        setup_reps: 9,
    },
    // The only mix where segments grow and budgeted migration runs. The
    // prefill (4× the base slots) already grows the filter twice, so
    // set-up is the bulk load of an elastic filter rather than a bare
    // allocation too short to time steadily.
    Workload {
        name: "elastic-grow",
        elastic: true,
        slots_log2: 18,
        prefill: 4.0,
        keys_per_frame: 256,
        cycle: &[Shape::Insert, Shape::Insert, Shape::Insert, Shape::Lookup],
        open_rate: 6_500.0,
        closed_rate: 13_000.0,
        setup_reps: 5,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one run does: the phases' frame counts and sizes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload being run.
    pub workload: &'static Workload,
    /// log2 of the table's slot count.
    pub slots_log2: u32,
    /// Open-loop frames over all connections.
    pub open_frames: usize,
    /// Open-loop offered rate, frames per second.
    pub open_rate: f64,
    /// Closed-loop frames over all connections (traced runs only).
    pub closed_frames: usize,
    /// Never-inserted keys looked up at the end to measure the FPR.
    pub probe_keys: usize,
    /// Frames of the one-connection traced runs.
    pub trace_frames: usize,
    /// Keys inserted and deleted again by the trace's op-coverage tail.
    pub tail_keys: usize,
    /// Set-ups per run.
    pub setup_reps: usize,
}

impl Plan {
    /// The full-size plan for a run of `seconds`.
    #[must_use]
    pub fn full(workload: &'static Workload, seconds: f64) -> Self {
        let closed_frames = (workload.closed_rate * seconds * CLOSED_SHARE) as usize;
        Self {
            workload,
            slots_log2: workload.slots_log2,
            open_frames: (workload.open_rate * seconds) as usize,
            open_rate: workload.open_rate,
            closed_frames,
            probe_keys: 1 << 22,
            trace_frames: closed_frames / 2,
            tail_keys: 1 << 14,
            setup_reps: workload.setup_reps,
        }
    }

    /// A seconds-long plan on a 2^12-slot table, for the smoke tests:
    /// the same code path at a size a debug build finishes quickly.
    #[must_use]
    pub fn smoke(workload: &'static Workload) -> Self {
        Self {
            workload,
            slots_log2: 12,
            open_frames: 300,
            open_rate: 2_000.0,
            closed_frames: 600,
            probe_keys: 1 << 16,
            trace_frames: 200,
            tail_keys: 512,
            setup_reps: 2,
        }
    }

    /// Slots in the table (the base segment when elastic).
    #[must_use]
    pub fn slots(&self) -> usize {
        1 << self.slots_log2
    }

    /// Keys stored before the server starts.
    #[must_use]
    pub fn prefill_keys(&self) -> u64 {
        (self.slots() as f64 * self.workload.prefill) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert!(
                std::ptr::eq(find(w.name).expect("listed"), w),
                "{} listed twice",
                w.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn full_plans_scale_with_seconds() {
        let w = find("churn-95").expect("listed");
        let one = Plan::full(w, 1.0);
        let ten = Plan::full(w, 10.0);
        assert_eq!(ten.open_frames, 10 * one.open_frames);
        assert!(ten.closed_frames >= 10 * one.closed_frames);
        assert_eq!(ten.prefill_keys(), (0.95 * (1u64 << 22) as f64) as u64);
    }
}
