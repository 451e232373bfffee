//! One run of one workload: set-up, the timed repetitions, the checks,
//! and — in a traced run — the layer probes.

use crate::cluster::{Job, Session};
use crate::pipeline::{self, Pipeline, StageSeconds, Verified};
use crate::procfs;
use crate::report::{Measured, Report, END_TO_END, PER_LAYER};
use crate::span::{attributed_share, Tracer};
use crate::stats::{median, Summary};
use crate::workload::{Plan, Workload, CAMPAIGN_THREADS};
use crate::{probes, RunArgs};
use snn_mtfc::cluster::ClusterStatus;
use snn_mtfc::service::JobSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated so that `setup_s` is a median, not one sample.
const SETUP_REPS: usize = 5;
/// Fewest timed repetitions, however short the run.
const MIN_REPS: usize = 3;
/// Pings behind `service.ping_rtt_us`.
const PINGS: usize = 200;

/// Everything a workload's set-up builds.
// One value lives per run; boxing the larger variants would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Ctx {
    /// `pipeline-*`: the operation is a whole pipeline pass.
    Pipeline { pipeline: Pipeline, reference: Verified },
    /// `campaign-dense`: set-up made the reference pass; the operation
    /// re-runs its campaign over the same stimulus.
    Campaign { reference: Verified },
    /// `cluster-dense`: the operation is one job on `session`, a server
    /// with workers. `local` is the same job on `local_session`, a server
    /// without any, whose digest every job must reproduce.
    Cluster { session: Session, local_session: Session, spec: JobSpec, local: Job },
}

/// What one operation reports.
struct Sample {
    digest: String,
    faults: usize,
    detected: usize,
    test_ticks: usize,
    campaign_s: f64,
    /// Seconds per stage, when the operation is a direct pass.
    stages: Option<StageSeconds>,
}

impl Sample {
    fn of_pass(v: &Verified) -> Self {
        Self {
            digest: v.verdicts.digest.clone(),
            faults: v.faults.len(),
            detected: v.verdicts.detected,
            test_ticks: v.test_ticks,
            campaign_s: v.stages.campaign,
            stages: Some(v.stages),
        }
    }

    fn of_job(job: &Job) -> Self {
        Self {
            digest: job.digest.clone(),
            faults: job.faults_total,
            detected: job.detected,
            test_ticks: job.test_ticks,
            campaign_s: job.fault_sim_s(),
            stages: None,
        }
    }
}

impl Ctx {
    fn setup(plan: &Plan, seed: u64, work_dir: &Path, tr: &mut Tracer) -> Result<Self, String> {
        match plan.workload {
            Workload::ClusterDense => {
                let spec = plan.job_spec(seed);
                let mut local_session = Session::start(0, work_dir.join("state-local"))?;
                let local = local_session.job(&spec, tr)?;
                let mut session = Session::start(CAMPAIGN_THREADS, work_dir.join("state"))?;
                // Warm-up: the first job of a session also pays for the
                // model analysis and the workers' campaign fetch.
                let warm = session.job(&spec, tr)?;
                if warm.digest != local.digest {
                    return Err(format!(
                        "{}-worker digest {} differs from the local digest {}",
                        session.workers, warm.digest, local.digest
                    ));
                }
                Ok(Ctx::Cluster { session, local_session, spec, local })
            }
            workload => {
                let pipeline = Pipeline::create(plan.clone(), seed, work_dir)?;
                let reference = pipeline.run(tr)?;
                pipeline::check(&reference, plan.check_faults)?;
                Ok(if workload == Workload::CampaignDense {
                    Ctx::Campaign { reference }
                } else {
                    Ctx::Pipeline { pipeline, reference }
                })
            }
        }
    }

    /// The outcome every operation must reproduce.
    fn reference(&self) -> Sample {
        match self {
            Ctx::Pipeline { reference, .. } | Ctx::Campaign { reference } => {
                Sample::of_pass(reference)
            }
            Ctx::Cluster { local, .. } => Sample::of_job(local),
        }
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<Sample, String> {
        match self {
            Ctx::Pipeline { pipeline, .. } => Ok(Sample::of_pass(&pipeline.run(tr)?)),
            Ctx::Campaign { reference: v } => {
                let verdicts = pipeline::campaign(&v.net, &v.universe, &v.faults, &v.stimulus, tr)?;
                // Stages the operation does not repeat keep the reference
                // pass's seconds.
                let stages = StageSeconds {
                    campaign: verdicts.campaign_s,
                    digest: verdicts.digest_s,
                    ..v.stages
                };
                Ok(Sample {
                    digest: verdicts.digest,
                    faults: v.faults.len(),
                    detected: verdicts.detected,
                    test_ticks: v.test_ticks,
                    campaign_s: verdicts.campaign_s,
                    stages: Some(stages),
                })
            }
            Ctx::Cluster { session, spec, .. } => Ok(Sample::of_job(&session.job(spec, tr)?)),
        }
    }
}

/// Removes the run's working directory when the run ends, however.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timed repetitions of the workload's operation.
#[derive(Default)]
struct Reps {
    samples: Vec<Sample>,
    walls: Vec<f64>,
    /// Whether each kept repetition ran with spans recorded.
    traced: Vec<bool>,
    attempted: usize,
    failed: usize,
}

impl Reps {
    /// One more operation; a failure or a digest other than `expect` is
    /// counted and its sample dropped.
    fn push(&mut self, ctx: &mut Ctx, tr: &mut Tracer, traced: bool, expect: &str) {
        tr.set_enabled(traced);
        tr.set_op(self.attempted as u64 + 1);
        let (result, wall) = tr.time("op", |tr| ctx.op(tr));
        self.attempted += 1;
        match result {
            Ok(sample) if sample.digest == expect => {
                self.samples.push(sample);
                self.walls.push(wall);
                self.traced.push(traced);
            }
            Ok(sample) => {
                self.failed += 1;
                eprintln!("operation {}: digest {} != {expect}", self.attempted, sample.digest);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("operation {} failed: {e}", self.attempted);
            }
        }
    }
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let plan = Plan::new(args.workload, args.smoke);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{:?}: {e}", args.out_dir))?;
    let work = WorkDir::create(&args.out_dir)?;
    let (measured, listed): (_, Vec<(&str, &str)>) = if args.trace {
        (traced_run(args, &plan, &work.0)?, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    } else {
        (untraced_run(args, &plan, &work.0)?, END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    };
    let Measurement { reference, reps, setups, mut values } = measured;
    let metrics = listed
        .into_iter()
        .map(|(name, unit)| {
            let (value, summary) = values.remove(name).ok_or(format!("{name} was not measured"))?;
            Ok(Measured { name: name.into(), unit: unit.into(), value, summary })
        })
        .collect::<Result<_, String>>()?;
    Ok(Report {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        reps: reps.samples.len(),
        attempted: reps.attempted + setups,
        failed: reps.failed,
        digest: reference.digest,
        meta: args.meta.clone(),
        metrics,
    })
}

/// Measured values by metric name; medians carry their summary.
type Values = BTreeMap<&'static str, (f64, Option<Summary>)>;

/// What either kind of run hands back.
struct Measurement {
    /// The outcome every repetition reproduced.
    reference: Sample,
    reps: Reps,
    /// Set-up passes made; each counts as an attempted operation.
    setups: usize,
    values: Values,
}

/// The end-to-end run: no spans, every end-to-end metric.
fn untraced_run(args: &RunArgs, plan: &Plan, work_dir: &Path) -> Result<Measurement, String> {
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's servers and workers stop before the
        // next one starts.
        drop(ctx.take());
        let t0 = Instant::now();
        ctx = Some(Ctx::setup(plan, args.seed, work_dir, &mut tr)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut ctx = ctx.expect("SETUP_REPS is at least one");
    let reference = ctx.reference();

    let mut reps = Reps::default();
    let cpu_before = procfs::cpu_s()?;
    let started = Instant::now();
    while reps.attempted < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        reps.push(&mut ctx, &mut tr, false, &reference.digest);
    }
    let cpu_s = (procfs::cpu_s()? - cpu_before) / reps.attempted as f64;
    drop(ctx);
    if reps.samples.is_empty() {
        return Err("every timed operation failed".into());
    }

    let rates: Vec<f64> = reps.samples.iter().map(|s| s.faults as f64 / s.campaign_s).collect();
    let med = |samples: &[f64]| {
        let s = Summary::of(samples);
        (s.median, Some(s))
    };
    let values = Values::from([
        ("setup_s", med(&setup_s)),
        ("wall_s", med(&reps.walls)),
        ("campaign_faults_per_s", med(&rates)),
        ("cpu_s", (cpu_s, None)),
        ("peak_rss_mb", (procfs::peak_rss_mb()?, None)),
        ("test_ticks", (reference.test_ticks as f64, None)),
        ("fault_coverage", (reference.detected as f64 / reference.faults as f64, None)),
    ]);
    Ok(Measurement { reference, reps, setups: SETUP_REPS, values })
}

/// Jobs on a server with workers, with the coordinator's counters before
/// and after them, and the same job on a server without workers.
struct ClusterMeasure {
    jobs: Vec<Job>,
    local_jobs: Vec<Job>,
    before: ClusterStatus,
    after: ClusterStatus,
    ping_rtt_us: f64,
    workers: usize,
}

impl ClusterMeasure {
    /// Runs jobs for about `seconds` on the two sessions of a cluster
    /// context, in turn, so that a change in the machine's load reaches
    /// both sides of `efficiency_vs_local`.
    fn take(ctx: &mut Ctx, seconds: f64, tr: &mut Tracer) -> Result<Self, String> {
        let Ctx::Cluster { session, local_session, spec, .. } = ctx else {
            return Err("not a cluster context".into());
        };
        let before = session.status()?;
        let (mut jobs, mut local_jobs) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while jobs.len() < 2 || started.elapsed().as_secs_f64() < seconds {
            local_jobs.push(local_session.job(spec, tr)?);
            jobs.push(session.job(spec, tr)?);
        }
        let after = session.status()?;
        let ping_rtt_us = session.ping_rtt_us(PINGS)?;
        Ok(Self { jobs, local_jobs, before, after, ping_rtt_us, workers: session.workers })
    }

    /// The `service.*` and `cluster.*` metrics. The service reports its
    /// stage times in whole milliseconds, so they are averaged over the
    /// jobs, not ranked.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mean = |jobs: &[Job], f: &dyn Fn(&Job) -> f64| {
            jobs.iter().map(f).sum::<f64>() / jobs.len() as f64
        };
        let fault_sim_ms = |j: &Job| j.timings.fault_sim_ms as f64;
        let rate =
            |jobs: &[Job]| mean(jobs, &|j| j.faults_total as f64) / mean(jobs, &fault_sim_ms);
        let chunks = (self.after.chunks_completed - self.before.chunks_completed) as f64;
        let total_fault_sim_ms: f64 = self.jobs.iter().map(fault_sim_ms).sum();
        let busy = |s: &ClusterStatus| s.workers.iter().map(|w| w.busy_ms).sum::<u64>() as f64;
        vec![
            ("service.ping_rtt_us", self.ping_rtt_us),
            (
                "service.submit_rtt_ms",
                median(&self.jobs.iter().map(|j| j.submit_rtt_s * 1e3).collect::<Vec<_>>()),
            ),
            ("service.generation_ms", mean(&self.jobs, &|j| j.timings.generation_ms as f64)),
            ("service.fault_sim_ms", mean(&self.jobs, &fault_sim_ms)),
            ("service.overhead_ms", mean(&self.jobs, &Job::overhead_ms)),
            ("cluster.chunks_completed", chunks / self.jobs.len() as f64),
            (
                "cluster.chunks_reissued",
                (self.after.chunks_reissued - self.before.chunks_reissued) as f64,
            ),
            (
                "cluster.results_stale",
                (self.after.results_stale - self.before.results_stale) as f64,
            ),
            ("cluster.ms_per_chunk", total_fault_sim_ms / chunks),
            (
                "cluster.worker_busy_share",
                (busy(&self.after) - busy(&self.before))
                    / (self.workers as f64 * total_fault_sim_ms),
            ),
            ("cluster.local_fault_sim_ms", mean(&self.local_jobs, &fault_sim_ms)),
            // Both sides compute on CAMPAIGN_THREADS threads: the local
            // job in one process, the cluster as one thread per worker.
            ("cluster.efficiency_vs_local", rate(&self.jobs) / rate(&self.local_jobs)),
        ]
    }
}

/// The traced run: spans around every call, the layer probes, every
/// per-layer metric.
fn traced_run(args: &RunArgs, plan: &Plan, work_dir: &Path) -> Result<Measurement, String> {
    let mut tr = Tracer::new(true);
    let (ctx, _) = tr.time("setup", |tr| Ctx::setup(plan, args.seed, work_dir, tr));
    let mut ctx = ctx?;
    let reference = ctx.reference();

    // Traced and untraced repetitions alternate in the order T U U T, so
    // that neither a drift of the machine's load nor an effect of coming
    // first in a pair is taken for the cost of the spans.
    let mut reps = Reps::default();
    let started = Instant::now();
    while reps.attempted < 2 * MIN_REPS || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let traced = matches!(reps.attempted % 4, 0 | 3);
        reps.push(&mut ctx, &mut tr, traced, &reference.digest);
    }
    tr.set_enabled(true);
    tr.set_op(0);
    // Each traced repetition against the untraced one next to it.
    let overheads: Vec<f64> = reps
        .walls
        .chunks_exact(2)
        .zip(reps.traced.chunks_exact(2))
        .filter(|(_, traced)| traced[0] != traced[1])
        .map(|(walls, traced)| {
            let (with, without) =
                if traced[0] { (walls[0], walls[1]) } else { (walls[1], walls[0]) };
            with / without - 1.0
        })
        .collect();
    if overheads.is_empty() {
        return Err("too few timed operations succeeded".into());
    }

    // The service and cluster layers are measured on the `cluster-dense`
    // job whatever the workload: that workload's own sessions, or a pair
    // set up here. The direct pass the stage metrics and the layer
    // probes read is the reference pass, or for `cluster-dense` one made
    // here on its network.
    let cluster_seconds = args.seconds / 4.0;
    let (direct, cluster) = match ctx {
        Ctx::Pipeline { reference, .. } | Ctx::Campaign { reference } => {
            let cluster_plan = Plan::new(Workload::ClusterDense, plan.smoke);
            let (measure, _) = tr.time("probe.cluster", |tr| {
                let mut pair = Ctx::setup(&cluster_plan, args.seed, work_dir, tr)?;
                ClusterMeasure::take(&mut pair, cluster_seconds, tr)
            });
            (reference, measure?)
        }
        Ctx::Cluster { .. } => {
            let (measure, _) =
                tr.time("probe.cluster", |tr| ClusterMeasure::take(&mut ctx, cluster_seconds, tr));
            let measure = measure?;
            drop(ctx);
            let (pass, _) = tr.time("probe.direct_pass", |tr| {
                let pipeline = Pipeline::create(plan.clone(), args.seed, work_dir)?;
                let pass = pipeline.run(tr)?;
                pipeline::check(&pass, plan.check_faults)?;
                Ok::<_, String>(pass)
            });
            (pass?, measure)
        }
    };

    // Stage seconds: medians over the repetitions that are direct
    // passes, else the one direct pass.
    let stage = |f: &dyn Fn(&StageSeconds) -> f64| {
        let per_rep: Vec<f64> =
            reps.samples.iter().filter_map(|s| s.stages.as_ref().map(f)).collect();
        if per_rep.is_empty() {
            f(&direct.stages)
        } else {
            median(&per_rep)
        }
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("model.load_s", stage(&|s| s.load)),
        ("testgen.generate_s", stage(&|s| s.generate)),
        ("testgen.iterations", direct.iterations as f64),
        ("testgen.growths", direct.growths as f64),
        ("testgen.chunks", direct.chunks as f64),
        ("testgen.chunks_kept", direct.chunks_kept as f64),
        ("testgen.activated_fraction", direct.activated_fraction),
        ("testgen.compact_s", stage(&|s| s.compact)),
        ("testgen.events_io_s", stage(&|s| s.events_io)),
        ("faults.universe_s", stage(&|s| s.universe)),
        ("faults.universe_faults", direct.universe.len() as f64),
        ("faults.campaign_faults", direct.faults.len() as f64),
        ("faults.detected", direct.verdicts.detected as f64),
        ("faults.digest_s", stage(&|s| s.digest)),
        ("batch.campaign_s", stage(&|s| s.campaign)),
        ("bench.trace_overhead_ratio", median(&overheads)),
    ]);
    values.extend(cluster.metrics());
    let (probed, _) = tr.time("probe.layers", |_| probes::run(plan, &direct, args.seed));
    values.extend(probed?);
    values.insert("bench.attributed_share", attributed_share(tr.spans(), "op"));

    let trace_path = args.out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
    let file = std::fs::File::create(&trace_path).map_err(|e| format!("{trace_path:?}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    tr.write_jsonl(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{trace_path:?}: {e}"))?;

    let values = values.into_iter().map(|(name, value)| (name, (value, None))).collect();
    Ok(Measurement { reference, reps, setups: 1, values })
}
