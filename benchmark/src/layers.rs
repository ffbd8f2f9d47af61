//! The traced pass: the layer ladder and the single-layer probes that turn
//! into the per-layer metrics.
//!
//! One *round* replays the first ops of the workload's batch stream and of
//! the control stream at each rung — codec alone, bare `BuddyDevice`,
//! `DeviceHandle`, `BuddyPool`, `BuddyService` — each rung built from the
//! same config and loaded with the same data, with a span around every
//! library call. A rung's `_self_ns` is its time minus the rung below on
//! the same stream. The probes then price the layers the ladder does not
//! reach (the other codecs, `obs`, the generators, the simulator, the UM and
//! DL models).

use crate::data::DataSet;
use crate::machine::Cpus;
use crate::pipeline;
use crate::quiet::{Quiet, QuietSet};
use crate::rungs::{CodecRung, DeviceRung, HandleRung, PoolRung, Rung, ServiceRung};
use crate::spec::{CLASSES, CODECS};
use crate::stats::Estimate;
use crate::stream::{
    batch_program, control_program, control_stack, Op, OpKind, RunLog, Session, SpanSink, BATCH,
};
use crate::surface::{
    all_networks, benchmark_requests, capacity_speedup, choose_targets, profile_benchmark,
    um_simulate, ArrivalSchedule, BenchmarkLayout, Codec, CodecKind, CompressedBuf, Counter, Entry,
    EntryClass, Fidelity, GpuPerf, Histogram, MemRequest, MemoryMode, MetricsRegistry, PageAccess,
    Policy, PoolAllocId, ProfileConfig, SizeClass, UmConfig, ENTRY_BYTES,
};
use crate::trace::{Tracer, ROOT};
use crate::workload::{DeviceWorkload, IMAGE_BYTES};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Batch ops and control cycles replayed per rung.
const LADDER_BATCH_OPS: usize = 4_096;
const LADDER_CONTROL_CYCLES: usize = 256;

/// Image size for the workloads that have no image of their own
/// (`control_plane`, `paper_pipeline`): the ladder still needs data to move.
const SMALL_IMAGE_BYTES: u64 = 8 << 20;

/// Entries in the codec probes' sample of the image.
const CODEC_SAMPLE: usize = 4_096;

/// What the traced pass looks at for one workload.
#[derive(Debug, Clone, Copy)]
pub struct LadderPlan {
    pub workload: DeviceWorkload,
    pub image_bytes: u64,
    /// Read share of the ladder's batch stream.
    pub read_frac: f64,
    /// Whether the workload's own stream is the control program (so the
    /// codec share and the trace overhead are taken on that stream).
    pub main_is_control: bool,
}

impl LadderPlan {
    pub fn for_device(w: DeviceWorkload) -> Self {
        match w.read_frac {
            Some(read_frac) => Self {
                workload: w,
                image_bytes: IMAGE_BYTES,
                read_frac,
                main_is_control: false,
            },
            None => Self {
                workload: w,
                image_bytes: SMALL_IMAGE_BYTES,
                read_frac: 0.5,
                main_is_control: true,
            },
        }
    }

    /// `paper_pipeline` never touches a device; its ladder runs over a small
    /// image of the suite's first benchmark so every layer still gets a
    /// number on that workload's kind of data.
    pub fn for_pipeline() -> Self {
        Self {
            workload: DeviceWorkload {
                name: "paper_pipeline",
                bench: Some("351.palm"),
                ..crate::workload::READ_HEAVY
            },
            image_bytes: SMALL_IMAGE_BYTES,
            read_frac: 0.5,
            main_is_control: false,
        }
    }
}

/// Passes of each stream per rung per round, and the chunking the quiet-time
/// estimator compares them by.
const LADDER_PASSES: usize = 3;
const BATCH_CHUNK_OPS: usize = 64;
const CONTROL_CHUNK_OPS: usize = 1_024;

/// The rungs, bottom up; a rung's index here is its index in
/// [`Ladder::quiet`].
const RUNGS: [&str; 5] = [
    CodecRung::LAYER,
    DeviceRung::LAYER,
    HandleRung::LAYER,
    PoolRung::LAYER,
    ServiceRung::LAYER,
];
const SERVICE: usize = 4;

/// The traced pass of one workload, accumulated over rounds.
///
/// Each rung's time comes from the same quiet-time estimator as the
/// end-to-end metrics (see `quiet.rs`): rungs are measured minutes apart on
/// a box whose speed changes every few seconds, so comparing single passes
/// would compare the box's moods — the first prototype had the pool 45 %
/// *slower* than the service that contains it.
pub struct Ladder {
    plan: LadderPlan,
    seed: u64,
    data: DataSet,
    batch: Vec<Op>,
    control: Vec<Op>,
    /// `[rung][stream]`, stream 0 = batch, 1 = control.
    quiet: [[QuietSet; 2]; 5],
    /// The service rung once more with span recording off.
    untraced: QuietSet,
    /// Probe and counter values, one map per round.
    rounds: Vec<BTreeMap<String, f64>>,
    /// The measuring thread moves to the next CPU at every pass
    /// (`machine.rs`).
    cpus: Cpus,
    turn: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Where a round's spans go: `keep` is written out at the end of the run,
/// `scratch` only exists so that every traced pass pays for recording.
pub struct RoundTracers<'a> {
    pub keep: Option<(&'a mut Tracer, &'a mut Vec<String>)>,
    pub scratch: &'a mut Tracer,
}

/// Minimum of `rounds` timings of `f` over `units` units, in ns per unit
/// (the probes' quiet-time estimate: interference only adds time).
fn time_per_unit(units: usize, rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Total ns and units (entries for batch I/O, calls otherwise) of the ops of
/// `kind` in a quiet pass over `program`.
fn kind_total(quiet: &Quiet, program: &[Op], kind: OpKind) -> (f64, f64) {
    let (mut ns, mut units) = (0.0, 0.0);
    for ((&t, &meta), op) in quiet.op_ns().iter().zip(quiet.op_meta()).zip(program) {
        if meta & 0x0f == kind as u8 {
            ns += t as f64;
            units += match *op {
                Op::Write { len, .. } | Op::Read { len, .. } if len > 1 => len as f64,
                _ => 1.0,
            };
        }
    }
    (ns, units)
}

impl Ladder {
    pub fn new(plan: LadderPlan, seed: u64) -> Self {
        let data = plan.workload.data(plan.image_bytes, seed);
        let batch = batch_program(&data, plan.read_frac, LADDER_BATCH_OPS, seed);
        let control = control_program(LADDER_CONTROL_CYCLES, seed);
        Self {
            plan,
            seed,
            data,
            batch,
            control,
            quiet: Default::default(),
            untraced: QuietSet::default(),
            rounds: Vec::new(),
            cpus: Cpus::detect(),
            turn: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn next_cpu(&mut self) {
        self.cpus.take_turn(self.turn);
        self.turn += 1;
    }

    fn note(&mut self, log: &mut RunLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.errors.append(&mut log.errors);
    }

    /// One traced pass of `ops` on `session`, into accumulator
    /// `[rung][stream]`.
    fn traced_pass<R: Rung>(
        &mut self,
        session: &mut Session<'_, R>,
        rung: usize,
        stream: usize,
        keep: bool,
        tracers: &mut RoundTracers<'_>,
    ) -> RunLog {
        let (ops, chunk, what) = match stream {
            0 => (&self.batch, BATCH_CHUNK_OPS, "batch"),
            _ => (&self.control, CONTROL_CHUNK_OPS, "control"),
        };
        let mut log = RunLog::default();
        match tracers.keep.as_mut().filter(|_| keep) {
            Some((tracer, lanes)) => {
                lanes.push(format!("ladder {} {what}", R::LAYER));
                let lane = (lanes.len() - 1) as u16;
                let parent = tracer.open(&format!("ladder.{}.{what}", R::LAYER), lane, ROOT);
                let sink = SpanSink {
                    tracer,
                    lane,
                    parent,
                };
                session.run(ops, chunk, &mut log, Some(sink));
                tracer.close(parent);
            }
            None => {
                tracers.scratch.clear();
                let sink = SpanSink {
                    tracer: &mut *tracers.scratch,
                    lane: 0,
                    parent: ROOT,
                };
                session.run(ops, chunk, &mut log, Some(sink));
            }
        }
        self.quiet[rung][stream].observe(&log);
        self.note(&mut log);
        log
    }

    /// Loads the image into a fresh rung `R`.
    fn load<'p, R: Rung>(&mut self, palettes: &'p [Vec<Entry>]) -> Session<'p, R> {
        let mut session = Session::<R>::new(&self.data.stack, palettes);
        self.failed += session.load_image(&self.data, self.seed, &self.batch);
        session
    }

    /// One control pass on a fresh control stack at rung `R`.
    fn churn<'p, R: Rung>(
        &mut self,
        palettes: &'p [Vec<Entry>],
        rung: usize,
        keep: bool,
        tracers: &mut RoundTracers<'_>,
    ) -> (Session<'p, R>, RunLog) {
        let mut session = Session::<R>::new(&control_stack(), palettes);
        let log = self.traced_pass(&mut session, rung, 1, keep, tracers);
        (session, log)
    }

    /// One untraced pass of the workload's own stream at the service rung.
    fn untraced_pass(&mut self, image: &mut Session<'_, ServiceRung>, palettes: &[Vec<Entry>]) {
        let mut log = RunLog::default();
        if self.plan.main_is_control {
            Session::<ServiceRung>::new(&control_stack(), palettes).run(
                &self.control,
                CONTROL_CHUNK_OPS,
                &mut log,
                None,
            );
        } else {
            image.run(&self.batch, BATCH_CHUNK_OPS, &mut log, None);
        }
        self.untraced.observe(&log);
        self.note(&mut log);
    }

    /// One round: both streams [`LADDER_PASSES`] times at every rung, then
    /// the probes.
    ///
    /// The rungs take turns pass by pass instead of running one after the
    /// other, so that every rung samples the same stretch of wall time: a
    /// busy spell then slows one pass of every rung rather than every pass
    /// of one rung, and the estimator can discard it. (Rung by rung, a spell
    /// once made the service look 24 % slower than the pool inside it.)
    pub fn round(&mut self, mut tracers: RoundTracers<'_>) {
        let mut values = BTreeMap::new();
        // The sessions borrow the palettes; detach them from `self` so the
        // accumulators stay writable meanwhile.
        let palettes = std::mem::take(&mut self.data.palettes);
        let t = &mut tracers;

        let mut codec = self.load::<CodecRung>(&palettes);
        let mut device = self.load::<DeviceRung>(&palettes);
        let mut handle = self.load::<HandleRung>(&palettes);
        let mut pool = self.load::<PoolRung>(&palettes);
        let mut service = self.load::<ServiceRung>(&palettes);
        // The same stream at the service rung with span recording off, to
        // price the recording.
        let mut plain = self.load::<ServiceRung>(&palettes);
        for pass in 0..LADDER_PASSES {
            let keep = pass == 0;
            self.next_cpu();
            self.traced_pass(&mut codec, 0, 0, keep, t);
            self.traced_pass(&mut device, 1, 0, keep, t);
            self.traced_pass(&mut handle, 2, 0, keep, t);
            self.traced_pass(&mut pool, 3, 0, keep, t);
            self.traced_pass(&mut service, SERVICE, 0, keep, t);
            self.untraced_pass(&mut plain, &palettes);
        }
        drop((codec, handle, plain));

        let mut last = None;
        for pass in 0..LADDER_PASSES {
            let keep = pass == 0;
            self.next_cpu();
            self.churn::<CodecRung>(&palettes, 0, keep, t);
            let d = self.churn::<DeviceRung>(&palettes, 1, keep, t);
            self.churn::<HandleRung>(&palettes, 2, keep, t);
            let p = self.churn::<PoolRung>(&palettes, 3, keep, t);
            let s = self.churn::<ServiceRung>(&palettes, SERVICE, keep, t);
            last = Some((d, p, s));
        }
        let ((device_churn, device_log), (pool_churn, _), (mut service_churn, service_log)) =
            last.expect("at least one pass");

        let io = device.rung.counters().stats;
        let structural = device_churn.rung.counters();
        let mut put = |k: &str, v: f64| values.insert(format!("core.device.{k}"), v);
        put("device_sectors", io.device_sectors as f64);
        put("buddy_sectors", io.buddy_sectors as f64);
        put(
            "buddy_accesses",
            (io.reads_with_buddy + io.writes_with_buddy) as f64,
        );
        put("moved_sectors", structural.stats.moved_sectors as f64);
        put("alloc_failed", device_log.alloc_failed as f64);
        put("fragmentation", structural.fragmentation);
        put(
            "largest_free_frac",
            structural.largest_free as f64 / structural.device_capacity.max(1) as f64,
        );

        let drain = time_per_unit(64, 5, || {
            for _ in 0..64 {
                black_box(pool_churn.rung.pool.drain());
            }
        });
        values.insert("pool.drain_ns".into(), drain);
        values.insert(
            "pool.alloc_probes".into(),
            pool_churn.rung.counters().alloc_probes as f64,
        );
        // The probe's two threads need both CPUs.
        self.cpus.release();
        two_client_probe(&pool, &self.batch, &mut values);
        self.next_cpu();

        let sweep = Instant::now();
        let wrong = service.verify_all().1 + service_churn.verify_all().1;
        values.insert("bench.verify_s".into(), sweep.elapsed().as_secs_f64());
        if wrong > 0 {
            self.failed += wrong;
            self.errors
                .push(format!("post-run sweep: {wrong} entries read back wrong"));
        }
        values.insert("service.rejected".into(), service_log.refused as f64);
        values.insert("service.demoted".into(), service_log.demoted as f64);
        drop((
            device,
            pool,
            service,
            device_churn,
            pool_churn,
            service_churn,
        ));
        self.data.palettes = palettes;

        codec_probes(&self.data, self.seed, &mut values);
        obs_probes(&mut values);
        generator_probes(&self.data, self.seed, &mut values);
        model_probes(&self.data, self.seed, &mut values);
        self.cpus.release();
        self.rounds.push(values);
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// ns per entry (batch I/O) or per call of `kind` at `rung`, from the
    /// quiet accumulator selected by `pick`.
    fn cost(&self, rung: usize, kind: OpKind, pick: impl Fn(&QuietSet) -> &Quiet) -> f64 {
        let (stream, program) = match kind {
            OpKind::Write | OpKind::Read => (0, &self.batch),
            _ => (1, &self.control),
        };
        let (ns, units) = kind_total(pick(&self.quiet[rung][stream]), program, kind);
        if units == 0.0 {
            0.0
        } else {
            ns / units
        }
    }

    /// Quiet total of the workload's own stream at `rung`.
    fn main_ns(&self, rung: usize, pick: impl Fn(&QuietSet) -> &Quiet) -> f64 {
        let stream = self.plan.main_is_control as usize;
        pick(&self.quiet[rung][stream])
            .op_ns()
            .iter()
            .map(|&n| n as f64)
            .sum()
    }

    /// Quiet time the codec rung spends in the codec on the workload's own
    /// stream: its I/O and retarget ops. What it spends in `alloc` and `free`
    /// is the rung's own bookkeeping (a `Vec` per allocation; 0.4 ms of a
    /// 0.6–1.0 ms control pass, depending on the state of the heap), not
    /// work a codec does.
    fn codec_ns(&self, pick: impl Fn(&QuietSet) -> &Quiet) -> f64 {
        let stream = self.plan.main_is_control as usize;
        let quiet = pick(&self.quiet[0][stream]);
        let structural = [
            OpKind::Alloc as u8,
            OpKind::Refuse as u8,
            OpKind::Free as u8,
        ];
        quiet
            .op_ns()
            .iter()
            .zip(quiet.op_meta())
            .filter(|(_, meta)| !structural.contains(&(*meta & 0x0f)))
            .map(|(&n, _)| n as f64)
            .sum()
    }

    /// Every per-layer metric the ladder and probes produce, by name, and
    /// the exact ones that differed between rounds.
    pub fn finish(&self) -> (BTreeMap<String, Estimate>, Vec<String>) {
        let mut out = BTreeMap::new();
        let mut errors = Vec::new();
        let picks: [fn(&QuietSet) -> &Quiet; 3] = [|q| &q.all, |q| &q.halves[0], |q| &q.halves[1]];
        let n = self.quiet[SERVICE][0].all.observations;
        let estimate = |f: &dyn Fn(fn(&QuietSet) -> &Quiet) -> f64| {
            Estimate::with_halves(f(picks[0]), f(picks[1]), f(picks[2]), n)
        };

        for (rung, layer) in RUNGS.iter().enumerate().skip(1) {
            let mut kinds = IO_KINDS.to_vec();
            if *layer != HandleRung::LAYER {
                kinds.extend(STRUCTURAL_KINDS);
            }
            for kind in kinds {
                out.insert(
                    format!("{layer}.{}_ns", kind.name()),
                    estimate(&|p| self.cost(rung, kind, p)),
                );
            }
            if rung >= 2 {
                for kind in IO_KINDS {
                    out.insert(
                        format!("{layer}.{}_self_ns", kind.name()),
                        estimate(&|p| self.cost(rung, kind, p) - self.cost(rung - 1, kind, p)),
                    );
                }
            }
        }
        out.insert(
            "bench.codec_share".into(),
            estimate(&|p| self.codec_ns(p) / self.main_ns(SERVICE, p)),
        );
        let untraced = |p: fn(&QuietSet) -> &Quiet| -> f64 {
            p(&self.untraced).op_ns().iter().map(|&n| n as f64).sum()
        };
        out.insert(
            "bench.trace_overhead_frac".into(),
            estimate(&|p| self.main_ns(SERVICE, p) / untraced(p) - 1.0),
        );
        out.insert(
            "bench.failed_frac".into(),
            Estimate::exact(self.failed as f64 / self.attempted.max(1) as f64),
        );

        // Probes and counters: host values take the minimum over rounds,
        // exact values must agree between rounds.
        let exact: Vec<String> = crate::spec::per_layer()
            .into_iter()
            .filter(|s| s.kind == crate::spec::Kind::Exact)
            .map(|s| s.name)
            .collect();
        for name in self.rounds[0].keys() {
            let values: Vec<f64> = self
                .rounds
                .iter()
                .filter_map(|r| r.get(name).copied())
                .collect();
            let e = if exact.contains(name) {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    errors.push(format!(
                        "exact layer metric {name} differs between rounds: {values:?}"
                    ));
                }
                Estimate::exact(values[0])
            } else {
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Estimate {
                    value: min,
                    lo: min,
                    hi: max,
                    n: values.len(),
                }
            };
            out.insert(name.clone(), e);
        }
        (out, errors)
    }
}

const IO_KINDS: [OpKind; 4] = [OpKind::Write, OpKind::Read, OpKind::Write1, OpKind::Read1];
const STRUCTURAL_KINDS: [OpKind; 3] = [OpKind::Alloc, OpKind::Free, OpKind::Retarget];

/// Compress/decompress cost and size of `codec` over `sample`.
fn codec_probe(codec: CodecKind, sample: &[Entry]) -> (f64, f64, f64) {
    let mut buf = CompressedBuf::new();
    let compress = time_per_unit(sample.len(), 5, || {
        for e in sample {
            codec.compress_into(black_box(e), &mut buf);
            black_box(buf.bits());
        }
    });
    let streams: Vec<(Vec<u8>, usize)> = sample
        .iter()
        .map(|e| {
            codec.compress_into(e, &mut buf);
            (buf.data().to_vec(), buf.bits())
        })
        .collect();
    let mut out = [0u8; ENTRY_BYTES];
    let decompress = time_per_unit(sample.len(), 5, || {
        for (data, bits) in &streams {
            codec
                .decompress_into(black_box(data), *bits, &mut out)
                .expect("a stream this codec just wrote decodes");
            black_box(&out);
        }
    });
    let bits = streams.iter().map(|s| s.1 as f64).sum::<f64>() / sample.len() as f64;
    (compress, decompress, bits)
}

fn codec_probes(data: &DataSet, seed: u64, values: &mut BTreeMap<String, f64>) {
    // A sample with the image's own mixture: allocations in proportion to
    // their size, palette entries uniformly.
    let total: u64 = data.allocs.iter().map(|a| a.entries).sum();
    let mut rng = crate::stream::Rng::new(seed ^ 0xC0DEC);
    let sample: Vec<Entry> = (0..CODEC_SAMPLE)
        .map(|_| {
            let mut pick = rng.below(total);
            let alloc = data
                .allocs
                .iter()
                .find(|a| {
                    if pick < a.entries {
                        true
                    } else {
                        pick -= a.entries;
                        false
                    }
                })
                .expect("pick is below the total");
            let palette = &data.palettes[alloc.palette];
            palette[rng.below(palette.len() as u64) as usize]
        })
        .collect();
    for (kind, name) in CodecKind::ALL.into_iter().zip(CODECS) {
        let (c, d, bits) = codec_probe(kind, &sample);
        values.insert(format!("bpc.{name}.compress_ns"), c);
        values.insert(format!("bpc.{name}.decompress_ns"), d);
        values.insert(format!("bpc.{name}.bits_per_entry"), bits);
    }
    for (class, name) in SizeClass::ALL.into_iter().zip(CLASSES) {
        let entries: Vec<Entry> = (0..256u64)
            .map(|i| EntryClass::for_target(class).generate(seed ^ (i << 8)))
            .collect();
        let (c, d, _) = codec_probe(CodecKind::Bpc, &entries);
        values.insert(format!("bpc.bpc.compress_ns.{name}"), c);
        values.insert(format!("bpc.bpc.decompress_ns.{name}"), d);
    }
}

fn obs_probes(values: &mut BTreeMap<String, f64>) {
    const N: usize = 1 << 16;
    let hist = Histogram::new();
    let record = time_per_unit(N, 5, || {
        for i in 0..N as u64 {
            black_box(&hist).record(black_box(200 + (i & 1023)));
        }
    });
    let counter = Counter::default();
    let incr = time_per_unit(N, 5, || {
        for _ in 0..N {
            black_box(&counter).incr();
        }
    });
    // A registry the size of a small service's: 8 counters, 2 histograms.
    let registry = MetricsRegistry::new();
    for i in 0..8 {
        registry
            .counter(&format!("bench_counter_{i}"), "probe")
            .add(i);
    }
    for i in 0..2 {
        let h = registry.histogram(&format!("bench_hist_{i}"), "probe");
        (0..1000u64).for_each(|v| h.record(v * 37));
    }
    let snapshot = time_per_unit(256, 5, || {
        for _ in 0..256 {
            black_box(registry.sample());
        }
    });
    values.insert("obs.hist_record_ns".into(), record);
    values.insert("obs.counter_incr_ns".into(), incr);
    values.insert("obs.snapshot_us".into(), snapshot / 1e3);
}

fn generator_probes(data: &DataSet, seed: u64, values: &mut BTreeMap<String, f64>) {
    const N: usize = 1 << 15;
    let (spec, entries) = {
        let layout = data.bench.allocation_layout();
        (layout[0].0.clone(), layout[0].1)
    };
    let entry_gen = time_per_unit(N, 3, || {
        for i in 0..N as u64 {
            black_box(spec.entry_at(seed, (i * 7919) % entries, 0.5));
        }
    });
    let trace = time_per_unit(N, 3, || {
        for a in data.bench.trace(seed).take(N) {
            black_box(a);
        }
    });
    let arrival = time_per_unit(N, 3, || {
        for t in ArrivalSchedule::new(10_000.0, seed).take(N) {
            black_box(t);
        }
    });
    let t = Instant::now();
    let profiles = profile_benchmark(&data.bench, crate::data::PROFILE_SAMPLE_CAP, seed);
    let capture_ns = t.elapsed().as_nanos() as f64;
    let sampled: u64 = profiles.iter().map(|p| p.histogram.total()).sum();
    let choose = time_per_unit(64, 5, || {
        for _ in 0..64 {
            black_box(choose_targets(
                black_box(&profiles),
                &ProfileConfig::paper_final(),
            ));
        }
    });
    values.insert("workloads.entry_gen_ns".into(), entry_gen);
    values.insert("workloads.trace_ns".into(), trace);
    values.insert("workloads.arrival_ns".into(), arrival);
    values.insert(
        "workloads.capture_ns".into(),
        capture_ns / sampled.max(1) as f64,
    );
    values.insert("core.profile.choose_us".into(), choose / 1e3);
    values.insert("workloads.paper_ratio_err".into(), data.paper_ratio_err());
}

fn model_probes(data: &DataSet, seed: u64, values: &mut BTreeMap<String, f64>) {
    let fast: Vec<MemRequest> = benchmark_requests(&data.bench, seed)
        .take(pipeline::SIM_ACCESSES as usize)
        .collect();
    let layout = BenchmarkLayout::new(&data.bench, &data.outcome, 0.5, seed);
    let mut buddy = Default::default();
    let fast_ns = time_per_unit(fast.len(), 3, || {
        buddy = pipeline::simulate(
            &data.bench,
            &fast,
            MemoryMode::Buddy,
            Fidelity::Fast,
            Some(&layout),
        );
    });
    let base = pipeline::simulate(
        &data.bench,
        &fast,
        MemoryMode::Uncompressed,
        Fidelity::Fast,
        None,
    );
    let detailed = &fast[..fast.len() / 4];
    let detailed_ns = time_per_unit(detailed.len(), 3, || {
        black_box(pipeline::simulate(
            &data.bench,
            detailed,
            MemoryMode::Buddy,
            Fidelity::Detailed,
            Some(&layout),
        ));
    });
    let m = values;
    m.insert("gpu_sim.fast_ns".into(), fast_ns);
    m.insert("gpu_sim.detailed_ns".into(), detailed_ns);
    m.insert("gpu_sim.cycles".into(), buddy.cycles);
    m.insert("gpu_sim.l2_hit_rate".into(), buddy.l2_hit_rate());
    m.insert("gpu_sim.md_hit_rate".into(), buddy.md_hit_rate());
    m.insert("gpu_sim.buddy_access_frac".into(), buddy.buddy_fraction());
    m.insert("gpu_sim.dram_sectors".into(), buddy.dram_sectors as f64);
    m.insert(
        "gpu_sim.link_sectors".into(),
        (buddy.link_sectors_in + buddy.link_sectors_out) as f64,
    );
    m.insert("gpu_sim.buddy_slowdown".into(), buddy.cycles / base.cycles);

    let pages = (data.bench.total_entries() / 512).max(1);
    let config = UmConfig {
        device_bytes: (pages * 8 / 10).max(1) * (64 << 10),
        ..UmConfig::default()
    };
    let um = time_per_unit(1, 3, || {
        black_box(um_simulate(
            fast.iter().map(|r| PageAccess {
                page: r.entry / 512,
                bytes: r.sector_mask.count_ones() * 32,
                write: r.write,
            }),
            Policy::UnifiedMemory,
            &config,
        ));
    });
    m.insert("umem.model_us".into(), um / 1e3);

    let networks = all_networks();
    let ratio = data.outcome.device_compression_ratio();
    let dl = time_per_unit(networks.len() * 16, 5, || {
        for _ in 0..16 {
            for (net, batch, _) in &networks {
                black_box(capacity_speedup(
                    net,
                    &GpuPerf::default(),
                    black_box(ratio),
                    0.022,
                    batch * 64,
                ));
            }
        }
    });
    m.insert("dlmodel.model_us".into(), dl / 1e3);
}

/// Two clients reading through one pool against one: wall ns per entry and
/// the scaling factor (2.0 = perfect). A diagnostic, not gated: on a
/// 2-core shared box it swings by ~20 % run to run.
fn two_client_probe(
    session: &Session<'_, PoolRung>,
    batch: &[Op],
    values: &mut BTreeMap<String, f64>,
) {
    let reads = session.read_targets(batch);
    if reads.is_empty() {
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = &session.rung.pool;
    let run = |targets: &[(PoolAllocId, u64)]| {
        let mut buf = vec![[0u8; ENTRY_BYTES]; BATCH];
        for &(id, start) in targets {
            pool.read_entries(id, start, &mut buf)
                .expect("reads of live slots succeed");
            black_box(&buf);
        }
    };
    let entries = reads.len() * BATCH;
    let one = time_per_unit(entries, 3, || run(&reads));
    // Never more threads than cores: on one core the probe reports the
    // single-client number and a scaling of 1.
    let two = if cores >= 2 {
        let (a, b) = reads.split_at(reads.len() / 2);
        time_per_unit(entries, 3, || {
            std::thread::scope(|s| {
                s.spawn(|| run(a));
                s.spawn(|| run(b));
            });
        })
    } else {
        one
    };
    values.insert("pool.read_2c_ns".into(), two);
    values.insert("pool.scaling_2c".into(), one / two);
}
