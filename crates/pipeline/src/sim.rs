//! Discrete-event simulation of one secure convolution layer on a
//! memory-constrained client.
//!
//! The simulator schedules the encrypt → upload → server-compute →
//! download → decrypt pipeline of a [`ConvPlan`] under:
//!
//! * the client's ciphertext capacity (a slot is held from the start of
//!   encryption until upload completes, and from the start of download
//!   until decryption completes — the paper's Fig. 3 memory constraint);
//! * a finite server thread pool;
//! * serialized up/down links.
//!
//! With channel-wise packing ([`OutputDependency::AllInputs`]) the server
//! computes the convolution only once **all** input ciphertexts have
//! arrived (CrypTFlow2's batched convolution API), so the sequential
//! encryption of a tiny client leaves the server idle — the paper's
//! *linear computation stall*. SPOT's structure patching
//! ([`OutputDependency::PerInput`]) completes the convolution per input
//! ciphertext and streams results back immediately, overlapping server
//! compute, transfers, and the client's next encryption.

use crate::device::{DeviceProfile, HeCostTable};
use crate::plan::{ConvPlan, OutputDependency};
use spot_he::evaluator::OpCounts;
use spot_proto::channel::LinkModel;
use spot_proto::cost::OtCostModel;
use std::collections::BinaryHeap;

/// Simulation configuration: who runs where, over what link.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The client device.
    pub client: DeviceProfile,
    /// The server device.
    pub server: DeviceProfile,
    /// HE cost table (reference-core seconds).
    pub costs: HeCostTable,
    /// Network link model.
    pub link: LinkModel,
}

impl SimConfig {
    /// Standard configuration: the given client vs the EPYC server, over
    /// the client's own link (LAN for desktops, WLAN for tiny clients).
    pub fn with_client(client: DeviceProfile) -> Self {
        let link = client.link;
        Self {
            client,
            server: DeviceProfile::server_epyc(),
            costs: HeCostTable::reference(),
            link,
        }
    }
}

/// Timing breakdown of one simulated layer (the Table III decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTiming {
    /// End-to-end wall-clock seconds.
    pub total_s: f64,
    /// Client HE CPU seconds (encrypt + decrypt + share assembly).
    pub client_he_s: f64,
    /// Server HE CPU seconds (all threads summed).
    pub server_he_s: f64,
    /// Non-linear (OT ReLU) seconds on the critical path.
    pub relu_s: f64,
    /// Communication seconds (links busy time).
    pub comm_s: f64,
    /// Server idle seconds between its first and last HE job (the stall).
    pub stall_s: f64,
    /// Upstream bytes.
    pub upstream_bytes: u64,
    /// Downstream bytes.
    pub downstream_bytes: u64,
}

impl LayerTiming {
    /// Adds another layer's timing (sequential composition).
    pub fn accumulate(&mut self, other: &LayerTiming) {
        self.total_s += other.total_s;
        self.client_he_s += other.client_he_s;
        self.server_he_s += other.server_he_s;
        self.relu_s += other.relu_s;
        self.comm_s += other.comm_s;
        self.stall_s += other.stall_s;
        self.upstream_bytes += other.upstream_bytes;
        self.downstream_bytes += other.downstream_bytes;
    }
}

/// A single scheduled interval, for timeline exports (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Which lane the event belongs to (`client`, `server`, `link-up`,
    /// `link-down`).
    pub lane: &'static str,
    /// Event label, e.g. `enc[3]`.
    pub label: String,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Result of simulating one layer: the timing summary plus the full
/// event timeline.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Timing breakdown.
    pub timing: LayerTiming,
    /// Every scheduled interval (for Gantt-style inspection).
    pub timeline: Vec<TimelineEvent>,
}

fn ops_seconds(ops: &OpCounts, costs: &crate::device::OpCosts) -> f64 {
    ops.add as f64 * costs.add
        + ops.mult_plain as f64 * costs.mult_plain
        + ops.rotate as f64 * costs.rotate
        + ops.encrypt as f64 * costs.encrypt
        + ops.decrypt as f64 * costs.decrypt
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    ClientCpu,
    Server,
    LinkUp,
    LinkDown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotAction {
    None,
    /// Acquire a client memory slot at start (released by a later job).
    Acquire,
    /// Release the slot chain this job belongs to at completion.
    Release,
}

#[derive(Debug, Clone)]
struct Job {
    resource: Res,
    duration: f64,
    deps: Vec<usize>,
    slot: SlotAction,
    lane: &'static str,
    label: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    time: f64,
    job: usize,
}

impl Eq for Completion {}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // min-heap by time (reverse), tie-break by job id
        other
            .time
            .partial_cmp(&self.time)
            .unwrap()
            .then(other.job.cmp(&self.job))
    }
}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy event-driven list scheduler over the job graph.
struct Engine {
    jobs: Vec<Job>,
    start: Vec<f64>,
    end: Vec<f64>,
    done: Vec<bool>,
    started: Vec<bool>,
    free: [usize; 4],
    free_slots: usize,
}

impl Engine {
    fn new(jobs: Vec<Job>, client_threads: usize, server_threads: usize, slots: usize) -> Self {
        let n = jobs.len();
        Self {
            jobs,
            start: vec![0.0; n],
            end: vec![0.0; n],
            done: vec![false; n],
            started: vec![false; n],
            free: [client_threads.max(1), server_threads.max(1), 1, 1],
            free_slots: slots.max(1),
        }
    }

    fn res_idx(r: Res) -> usize {
        match r {
            Res::ClientCpu => 0,
            Res::Server => 1,
            Res::LinkUp => 2,
            Res::LinkDown => 3,
        }
    }

    fn run(&mut self) -> f64 {
        let mut heap: BinaryHeap<Completion> = BinaryHeap::new();
        let mut now = 0.0f64;
        let mut remaining = self.jobs.len();
        loop {
            // Start every startable job at `now`, in index order.
            let mut progress = true;
            while progress {
                progress = false;
                for j in 0..self.jobs.len() {
                    if self.started[j] {
                        continue;
                    }
                    let job = &self.jobs[j];
                    if !job.deps.iter().all(|&d| self.done[d]) {
                        continue;
                    }
                    let ri = Self::res_idx(job.resource);
                    if self.free[ri] == 0 {
                        continue;
                    }
                    if job.slot == SlotAction::Acquire && self.free_slots == 0 {
                        continue;
                    }
                    // start it
                    self.free[ri] -= 1;
                    if job.slot == SlotAction::Acquire {
                        self.free_slots -= 1;
                    }
                    self.started[j] = true;
                    self.start[j] = now;
                    self.end[j] = now + job.duration;
                    heap.push(Completion {
                        time: self.end[j],
                        job: j,
                    });
                    progress = true;
                }
            }
            // Advance to the next completion.
            match heap.pop() {
                None => break,
                Some(c) => {
                    now = c.time;
                    // complete this and any simultaneous completions
                    let mut batch = vec![c];
                    while let Some(&next) = heap.peek() {
                        if next.time <= now + 1e-15 {
                            batch.push(heap.pop().unwrap());
                        } else {
                            break;
                        }
                    }
                    for c in batch {
                        let j = c.job;
                        self.done[j] = true;
                        remaining -= 1;
                        let ri = Self::res_idx(self.jobs[j].resource);
                        self.free[ri] += 1;
                        if self.jobs[j].slot == SlotAction::Release {
                            self.free_slots += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(remaining, 0, "scheduler deadlock: jobs left unscheduled");
        now
    }
}

/// Simulates one convolution layer (plus its trailing ReLU, if any).
#[allow(clippy::needless_range_loop)]
pub fn simulate_conv(plan: &ConvPlan, cfg: &SimConfig) -> SimResult {
    let costs = cfg.costs.at(plan.level);
    let enc_t = cfg.client.scale(costs.encrypt);
    let dec_t = cfg.client.scale(costs.decrypt);
    let up_t = cfg.link.transfer_time(plan.ciphertext_bytes);
    // Each input's job takes an equal share of the per-input work.
    let per_ct_t =
        cfg.server.scale(ops_seconds(&plan.input_ops, &costs)) / plan.input_cts.max(1) as f64;
    let fin_total = cfg.server.scale(ops_seconds(&plan.finalize_ops, &costs));
    let asm_total = cfg.client.scale(plan.assembly_elements as f64 * 2e-9);

    let capacity = cfg.client.ciphertext_capacity(plan.ciphertext_bytes);

    let down_t = cfg.link.transfer_time(plan.result_bytes);
    let dec_one = dec_t + asm_total / plan.output_cts.max(1) as f64;

    // Build the job graph.
    let mut jobs: Vec<Job> = Vec::new();
    let mut srv_ids = Vec::with_capacity(plan.input_cts);
    let mut up_ids = Vec::with_capacity(plan.input_cts);
    for i in 0..plan.input_cts {
        let enc = jobs.len();
        jobs.push(Job {
            resource: Res::ClientCpu,
            duration: enc_t,
            deps: vec![],
            slot: SlotAction::Acquire,
            lane: "client",
            label: format!("enc[{i}]"),
        });
        let up = jobs.len();
        jobs.push(Job {
            resource: Res::LinkUp,
            duration: up_t,
            deps: vec![enc],
            slot: SlotAction::Release,
            lane: "link-up",
            label: format!("up[{i}]"),
        });
        up_ids.push(up);
    }
    // Server work: per-input for SPOT; after the last upload for
    // barrier-style schemes (CrypTFlow2/Cheetah batched convolution).
    for i in 0..plan.input_cts {
        let deps = match plan.dependency {
            OutputDependency::PerInput => vec![up_ids[i]],
            OutputDependency::AllInputs => up_ids.clone(),
        };
        let srv = jobs.len();
        jobs.push(Job {
            resource: Res::Server,
            duration: per_ct_t,
            deps,
            slot: SlotAction::None,
            lane: "server",
            label: format!("conv[{i}]"),
        });
        srv_ids.push(srv);
    }
    // Finalization (cross-ciphertext additions), parallelized over
    // output ciphertexts.
    let mut fin_ids = Vec::new();
    if fin_total > 0.0 {
        let fin_width = cfg.server.threads.min(plan.output_cts.max(1));
        for f in 0..fin_width {
            let fin = jobs.len();
            jobs.push(Job {
                resource: Res::Server,
                duration: fin_total / fin_width as f64,
                deps: srv_ids.clone(),
                slot: SlotAction::None,
                lane: "server",
                label: format!("finalize[{f}]"),
            });
            fin_ids.push(fin);
        }
    }
    // Downloads + decryptions.
    let outs_per_input = |i: usize| -> usize {
        let base = plan.output_cts / plan.input_cts.max(1);
        let extra = plan.output_cts % plan.input_cts.max(1);
        base + usize::from(i < extra)
    };
    let mut dec_ids = Vec::new();
    match plan.dependency {
        OutputDependency::PerInput => {
            for i in 0..plan.input_cts {
                for j in 0..outs_per_input(i) {
                    let mut deps = vec![srv_ids[i]];
                    deps.extend(fin_ids.iter().copied());
                    let down = jobs.len();
                    jobs.push(Job {
                        resource: Res::LinkDown,
                        duration: down_t,
                        deps,
                        slot: SlotAction::Acquire,
                        lane: "link-down",
                        label: format!("down[{i}.{j}]"),
                    });
                    let dec = jobs.len();
                    jobs.push(Job {
                        resource: Res::ClientCpu,
                        duration: dec_one,
                        deps: vec![down],
                        slot: SlotAction::Release,
                        lane: "client",
                        label: format!("dec[{i}.{j}]"),
                    });
                    dec_ids.push(dec);
                }
            }
        }
        OutputDependency::AllInputs => {
            let deps_base: Vec<usize> = if fin_ids.is_empty() {
                srv_ids.clone()
            } else {
                fin_ids.clone()
            };
            for j in 0..plan.output_cts {
                let down = jobs.len();
                jobs.push(Job {
                    resource: Res::LinkDown,
                    duration: down_t,
                    deps: deps_base.clone(),
                    slot: SlotAction::Acquire,
                    lane: "link-down",
                    label: format!("down[{j}]"),
                });
                let dec = jobs.len();
                jobs.push(Job {
                    resource: Res::ClientCpu,
                    duration: dec_one,
                    deps: vec![down],
                    slot: SlotAction::Release,
                    lane: "client",
                    label: format!("dec[{j}]"),
                });
                dec_ids.push(dec);
            }
        }
    }

    let mut engine = Engine::new(jobs, cfg.client.threads, cfg.server.threads, capacity);
    let mut makespan = engine.run();

    // Trailing ReLU on the shared output (starts after the last share
    // piece is decrypted).
    let mut relu_s = 0.0;
    if plan.relu_elements > 0 {
        let model = OtCostModel::relu(spot_proto::cost::field_bits(1 << 20));
        let cpu = model.cpu_seconds(plan.relu_elements);
        let both = cfg.client.scale(cpu).max(cfg.server.scale(cpu));
        let comm = cfg
            .link
            .transfer_time(model.comm_bytes(plan.relu_elements) as usize);
        relu_s = both + comm;
        makespan += relu_s;
    }

    // Collect timeline + metrics.
    let mut timeline = Vec::with_capacity(engine.jobs.len());
    let mut client_busy = 0.0;
    let mut server_busy = 0.0;
    let mut comm_busy = 0.0;
    let mut server_intervals = Vec::new();
    for (j, job) in engine.jobs.iter().enumerate() {
        timeline.push(TimelineEvent {
            lane: job.lane,
            label: job.label.clone(),
            start: engine.start[j],
            end: engine.end[j],
        });
        let dur = engine.end[j] - engine.start[j];
        match job.resource {
            Res::ClientCpu => client_busy += dur,
            Res::Server => {
                server_busy += dur;
                server_intervals.push((engine.start[j], engine.end[j]));
            }
            Res::LinkUp | Res::LinkDown => comm_busy += dur,
        }
    }
    if relu_s > 0.0 {
        timeline.push(TimelineEvent {
            lane: "client",
            label: "relu".to_string(),
            start: makespan - relu_s,
            end: makespan,
        });
    }

    // Server stall: idle time between first job start and last job end.
    server_intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let stall = if server_intervals.is_empty() {
        0.0
    } else {
        let span_start = server_intervals[0].0;
        let span_end = server_intervals
            .iter()
            .map(|&(_, e)| e)
            .fold(f64::MIN, f64::max);
        let mut busy = 0.0;
        let mut cur = server_intervals[0];
        for &(s, e) in &server_intervals[1..] {
            if s > cur.1 {
                busy += cur.1 - cur.0;
                cur = (s, e);
            } else {
                cur.1 = cur.1.max(e);
            }
        }
        busy += cur.1 - cur.0;
        // Idle while waiting for uploads counts from time 0 (the server
        // is committed to this layer as soon as the protocol starts).
        (span_end - span_start) - busy + span_start
    };

    SimResult {
        timing: LayerTiming {
            total_s: makespan,
            client_he_s: client_busy,
            server_he_s: server_busy,
            relu_s,
            comm_s: comm_busy,
            stall_s: stall.max(0.0),
            upstream_bytes: plan.upstream_bytes(),
            downstream_bytes: plan.downstream_bytes(),
        },
        timeline,
    }
}

/// Simulates a sequence of layers executed back to back (a block or a
/// whole network), summing the breakdowns.
pub fn simulate_layers(plans: &[ConvPlan], cfg: &SimConfig) -> LayerTiming {
    let mut acc = LayerTiming::default();
    for p in plans {
        acc.accumulate(&simulate_conv(p, cfg).timing);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_he::params::ParamLevel;

    fn mk_plan(dep: OutputDependency, input_cts: usize) -> ConvPlan {
        ConvPlan {
            scheme: "test",
            level: ParamLevel::N8192,
            input_cts,
            output_cts: input_cts,
            input_ops: OpCounts {
                add: 50,
                mult_plain: 100,
                rotate: 10,
                encrypt: 0,
                decrypt: 0,
            }
            .times(input_cts as u64),
            finalize_ops: if dep == OutputDependency::AllInputs {
                OpCounts {
                    add: 200,
                    mult_plain: 0,
                    rotate: 0,
                    encrypt: 0,
                    decrypt: 0,
                }
            } else {
                OpCounts::default()
            },
            dependency: dep,
            assembly_elements: 0,
            relu_elements: 10_000,
            ciphertext_bytes: 394_865,
            result_bytes: 394_865,
            useful_input_slots: 8192,
            useful_output_slots: 8192,
        }
    }

    fn tiny_client_cfg() -> SimConfig {
        SimConfig::with_client(DeviceProfile::iot_k27())
    }

    #[test]
    fn per_input_streaming_beats_barrier_on_tiny_client() {
        let cfg = tiny_client_cfg();
        let barrier = simulate_conv(&mk_plan(OutputDependency::AllInputs, 8), &cfg);
        let stream = simulate_conv(&mk_plan(OutputDependency::PerInput, 8), &cfg);
        assert!(
            stream.timing.total_s < barrier.timing.total_s,
            "stream {} vs barrier {}",
            stream.timing.total_s,
            barrier.timing.total_s
        );
        assert!(barrier.timing.stall_s > stream.timing.stall_s);
    }

    #[test]
    fn desktop_client_pipelines_better() {
        let tiny = simulate_conv(&mk_plan(OutputDependency::AllInputs, 8), &tiny_client_cfg());
        let desktop = simulate_conv(
            &mk_plan(OutputDependency::AllInputs, 8),
            &SimConfig::with_client(DeviceProfile::desktop_client()),
        );
        assert!(desktop.timing.total_s < tiny.timing.total_s);
    }

    #[test]
    fn timeline_events_are_ordered_and_positive() {
        let cfg = tiny_client_cfg();
        let res = simulate_conv(&mk_plan(OutputDependency::PerInput, 4), &cfg);
        assert!(!res.timeline.is_empty());
        for ev in &res.timeline {
            assert!(ev.end >= ev.start, "{ev:?}");
            assert!(ev.start >= 0.0);
        }
        // uploads are serialized on the single uplink
        let ups: Vec<&TimelineEvent> = res
            .timeline
            .iter()
            .filter(|e| e.lane == "link-up")
            .collect();
        for pair in ups.windows(2) {
            assert!(pair[1].start >= pair[0].end - 1e-12);
        }
    }

    #[test]
    fn relu_appears_in_totals() {
        let cfg = tiny_client_cfg();
        let mut plan = mk_plan(OutputDependency::PerInput, 2);
        plan.relu_elements = 0;
        let without = simulate_conv(&plan, &cfg).timing;
        plan.relu_elements = 100_000;
        let with = simulate_conv(&plan, &cfg).timing;
        assert!(with.relu_s > 0.0);
        assert!(with.total_s > without.total_s);
    }

    #[test]
    fn accumulate_sums() {
        let cfg = tiny_client_cfg();
        let p = mk_plan(OutputDependency::PerInput, 2);
        let one = simulate_conv(&p, &cfg).timing;
        let both = simulate_layers(&[p.clone(), p], &cfg);
        assert!((both.total_s - 2.0 * one.total_s).abs() < 1e-9);
        assert_eq!(both.upstream_bytes, 2 * one.upstream_bytes);
    }

    #[test]
    fn more_input_cts_increase_stall_under_barrier() {
        let cfg = tiny_client_cfg();
        let few = simulate_conv(&mk_plan(OutputDependency::AllInputs, 2), &cfg).timing;
        let many = simulate_conv(&mk_plan(OutputDependency::AllInputs, 16), &cfg).timing;
        assert!(many.stall_s > few.stall_s);
    }

    #[test]
    fn single_ciphertext_layer_works() {
        let cfg = tiny_client_cfg();
        let res = simulate_conv(&mk_plan(OutputDependency::PerInput, 1), &cfg);
        assert!(res.timing.total_s > 0.0);
        assert_eq!(res.timing.upstream_bytes, 394_865);
    }

    #[test]
    fn smaller_params_are_faster_end_to_end() {
        let cfg = tiny_client_cfg();
        let mut small = mk_plan(OutputDependency::PerInput, 8);
        small.level = ParamLevel::N4096;
        small.ciphertext_bytes = 131_697;
        small.result_bytes = 131_697;
        let big = mk_plan(OutputDependency::PerInput, 8);
        let ts = simulate_conv(&small, &cfg).timing;
        let tb = simulate_conv(&big, &cfg).timing;
        assert!(ts.total_s < tb.total_s);
    }
}
