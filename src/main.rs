//! `snn-mtfc` — command-line driver for the test-generation flow.
//!
//! ```text
//! snn-mtfc new      --input 2x16x16 --arch pool:2,dense:48,dense:10 --out model.snn [--seed N]
//! snn-mtfc info     model.snn
//! snn-mtfc generate model.snn --out test.events [--preset fast|repro|paper] [--seed N]
//!                   [--trace-out trace.jsonl]
//! snn-mtfc verify   model.snn test.events [--engine packed|scalar|auto]
//!                   [--trace-out trace.jsonl]
//! snn-mtfc profile  trace.jsonl [--phases]
//!
//! snn-mtfc reliability (--model model.snn | --synthetic IxH..xO) [--configs N]
//!                   [--weight-ber F] [--neuron-ber F] [--fault-model stuck|bitflip]
//!                   [--mitigation none|range|remap] [--window T0:T1] [--samples N]
//!                   [--steps N] [--rate F] [--seed N] [--threads N] [--json]
//!
//! snn-mtfc serve    --state-dir DIR [--addr HOST:PORT] [--workers N] [--queue N]
//!                   [--metrics-dump metrics.prom] [--expect-workers N]
//!                   [--chunk-size N] [--lease-ms MS] [--trace-out trace.jsonl]
//! snn-mtfc submit   (--model model.snn | --synthetic IxH..xO) [--preset P] [--coverage] [--watch]
//!                   [--engine packed|scalar|auto]
//! snn-mtfc status   [<job>] [--addr HOST:PORT]
//! snn-mtfc watch    <job>   [--addr HOST:PORT] [--json]
//! snn-mtfc metrics          [--addr HOST:PORT]
//! snn-mtfc cancel   <job>   [--addr HOST:PORT]
//! snn-mtfc shutdown         [--addr HOST:PORT]
//!
//! snn-mtfc worker         [--addr HOST:PORT] [--name NAME] [--threads N] [--trace]
//! snn-mtfc cluster-status [--addr HOST:PORT] [--json]
//! ```
//!
//! `new` creates a (randomly initialized) model file so the rest of the
//! flow can be exercised immediately; real flows train the network first
//! (see `examples/post_manufacturing.rs`) and save it with
//! [`snn_mtfc::model::Network::save`]. The `serve` family talks to the
//! `snn-service` job server (see `DESIGN.md` §8 for the wire protocol).

use rand::SeedableRng;
use snn_mtfc::faults::progress::Progress;
use snn_mtfc::faults::{Engine, FaultSimConfig, FaultUniverse};
use snn_mtfc::model::{LifParams, Network, NetworkBuilder};
use snn_mtfc::obs;
use snn_mtfc::service::{
    Client, JobEvent, JobEventPayload, JobRecord, JobSpec, ModelSpec, Server, ServiceConfig,
};
use snn_mtfc::testgen::{parse_events, runtimes_from_spans, TestGenConfig, TestGenerator};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Default server address for the service subcommands.
const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// Shadows `std::println!` in this file ([`out`] stands in for `print!`): a
/// reader that leaves early (`… | head -1`) ends the output — not a panic.
macro_rules! println {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn out(text: impl std::fmt::Display) {
    let written = write!(std::io::stdout(), "{text}");
    let closed = written.as_ref().is_err_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe);
    assert!(written.is_ok() || closed, "failed printing to stdout: {written:?}");
}

/// A subcommand: its name, the flags it takes (`--help` aside; those in
/// [`BOOL_FLAGS`] take no value, every other one the argument after it)
/// and what runs it.
type Command = (&'static str, &'static str, fn(&[String]) -> Result<(), String>);

/// Every subcommand. `main` refuses a flag its subcommand does not take
/// before the subcommand runs.
const COMMANDS: &[Command] = &[
    ("new", "--input --arch --out --seed --sparsity", cmd_new),
    ("info", "", cmd_info),
    ("analyze", "--format --trace-out", cmd_analyze),
    ("generate", "--out --preset --seed --trace-out", cmd_generate),
    ("verify", "--engine --trace-out", cmd_verify),
    (
        "reliability",
        "--model --synthetic --seed --configs --weight-ber --neuron-ber --fault-model \
         --mitigation --window --samples --steps --rate --eval-seed --threads --json",
        cmd_reliability,
    ),
    (
        "serve",
        "--state-dir --addr --workers --queue --metrics-dump --expect-workers --chunk-size \
         --lease-ms --trace-out",
        cmd_serve,
    ),
    (
        "submit",
        "--model --synthetic --preset --seed --max-iterations --t-limit --coverage --threads \
         --engine --watch --json --addr --reliability --configs --weight-ber --neuron-ber \
         --fault-model --mitigation --window --samples --steps --rate --eval-seed",
        cmd_submit,
    ),
    ("status", "--addr", cmd_status),
    ("watch", "--addr --json", cmd_watch),
    ("cancel", "--addr", cmd_cancel),
    ("shutdown", "--addr", cmd_shutdown),
    ("profile", "--phases", cmd_profile),
    ("metrics", "--addr", cmd_metrics),
    ("worker", "--addr --name --threads --trace", cmd_worker),
    ("cluster-status", "--addr --json", cmd_cluster_status),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if !matches!(command.as_str(), "--help" | "-h" | "help") => {
            run_command(command, rest)
        }
        _ => {
            print_usage();
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs subcommand `command` on `args` once every flag in them is one it
/// takes, and every value flag has its value; `--help` prints the usage.
fn run_command(command: &str, args: &[String]) -> Result<(), String> {
    let Some(&(_, flags, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command `{command}` (try --help)"));
    };
    let (mut rest, mut help) = (args.iter().map(String::as_str), false);
    while let Some(arg) = rest.next() {
        if arg == "--help" {
            help = true;
        } else if !arg.starts_with("--") {
            continue;
        } else if !flags.split_whitespace().any(|flag| flag == arg) {
            return Err(format!("{command} does not take {arg} (try --help)"));
        } else if !BOOL_FLAGS.contains(&arg) && rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    if help {
        print_usage();
        return Ok(());
    }
    run(args)
}

fn print_usage() {
    println!(
        "snn-mtfc — minimum-time maximum-fault-coverage testing of SNNs\n\n\
         USAGE:\n  \
         snn-mtfc new      --input <CxHxW|N> --arch <spec> --out <model.snn> [--seed N]\n                    \
         [--sparsity FRAC]\n  \
         snn-mtfc info     <model.snn>\n  \
         snn-mtfc analyze  <model.snn> [--format text|json] [--trace-out <trace.jsonl>]\n  \
         snn-mtfc generate <model.snn> [--out <test.events>] [--preset fast|repro|paper] [--seed N]\n                    \
         [--trace-out <trace.jsonl>]\n  \
         snn-mtfc verify   <model.snn> <test.events> [--engine packed|scalar|auto]\n                    \
         [--trace-out <trace.jsonl>]\n  \
         snn-mtfc profile  <trace.jsonl> [--phases]\n\n  \
         snn-mtfc reliability (--model <model.snn> | --synthetic IxH..xO) [--configs N]\n                       \
         [--weight-ber F] [--neuron-ber F] [--fault-model stuck|bitflip]\n                       \
         [--mitigation none|range|remap] [--window T0:T1] [--samples N]\n                       \
         [--steps N] [--rate F] [--seed N] [--threads N] [--json]\n\n  \
         snn-mtfc serve    --state-dir <dir> [--addr host:port] [--workers N] [--queue N]\n                    \
         [--metrics-dump <metrics.prom>] [--expect-workers N]\n                    \
         [--chunk-size N] [--lease-ms MS] [--trace-out <trace.jsonl>]\n  \
         snn-mtfc submit   (--model <model.snn> | --synthetic IxH..xO) [--preset fast|repro|paper]\n                    \
         [--seed N] [--max-iterations N] [--t-limit SECS] [--coverage]\n                    \
         [--threads N] [--engine packed|scalar|auto] [--watch] [--addr host:port]\n                    \
         [--reliability plus the reliability flags above]\n  \
         snn-mtfc status   [<job>] [--addr host:port]\n  \
         snn-mtfc watch    <job>   [--addr host:port] [--json]\n  \
         snn-mtfc metrics          [--addr host:port]\n  \
         snn-mtfc cancel   <job>   [--addr host:port]\n  \
         snn-mtfc shutdown         [--addr host:port]\n\n  \
         snn-mtfc worker         [--addr host:port] [--name NAME] [--threads N] [--trace]\n  \
         snn-mtfc cluster-status [--addr host:port] [--json]\n\n\
         ARCH SPEC (comma-separated stages):\n  \
         dense:<n> | conv:<out_c>:<k>:<stride>:<pad> | pool:<k> | recurrent:<n>\n  \
         e.g. --input 2x16x16 --arch pool:2,dense:48,dense:10\n\n\
         The service commands default to --addr {DEFAULT_ADDR}."
    );
}

/// Fetches the value following `--flag`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Flags that take no value; anything else starting with `--` consumes the
/// next argument.
const BOOL_FLAGS: &[&str] =
    &["--coverage", "--watch", "--help", "--json", "--reliability", "--phases", "--trace"];

fn positional(args: &[String], index: usize) -> Option<&str> {
    args.iter()
        .scan(false, |skip_value, a| {
            if *skip_value {
                *skip_value = false;
                Some(None)
            } else if a.starts_with("--") {
                *skip_value = !BOOL_FLAGS.contains(&a.as_str());
                Some(None)
            } else {
                Some(Some(a.as_str()))
            }
        })
        .flatten()
        .nth(index)
}

/// Runs `body` with a fresh global trace collector installed, restoring
/// the uninstrumented state afterwards. Returns the body's result and
/// the collector (for span summaries and `--trace-out`).
fn with_trace<T>(
    body: impl FnOnce() -> Result<T, String>,
) -> (Result<T, String>, Arc<obs::Collector>) {
    let collector = Arc::new(obs::Collector::new());
    obs::trace::install(Arc::clone(&collector));
    let result = body();
    obs::trace::uninstall();
    (result, collector)
}

/// Writes the collected trace as JSONL to `--trace-out`, when given.
fn write_trace_out(args: &[String], collector: &obs::Collector) -> Result<(), String> {
    let Some(out) = flag(args, "--trace-out") else { return Ok(()) };
    collector
        .write_jsonl(std::path::Path::new(out))
        .map_err(|e| format!("cannot write trace {out}: {e}"))?;
    println!("wrote trace {out}");
    Ok(())
}

/// Parses `--engine scalar|packed|auto` into an execution-engine request;
/// absent means `Auto` everywhere downstream (the wire default).
fn engine_flag(args: &[String]) -> Result<Option<Engine>, String> {
    flag(args, "--engine").map(|s| s.parse().map_err(|e| format!("bad --engine: {e}"))).transpose()
}

fn seed_of(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seed") {
        None => Ok(42),
        Some(s) => s.parse().map_err(|e| format!("bad --seed: {e}")),
    }
}

fn load_model(path: &str) -> Result<Network, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Network::load(&mut BufReader::new(file)).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_new(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--input").ok_or("missing --input")?;
    let arch = flag(args, "--arch").ok_or("missing --arch")?;
    let out = flag(args, "--out").ok_or("missing --out")?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed_of(args)?);

    let dims: Vec<usize> = input
        .split('x')
        .map(|d| d.parse().map_err(|e| format!("bad --input: {e}")))
        .collect::<Result<_, _>>()?;
    let lif = LifParams::default();
    let mut builder = match dims.as_slice() {
        [n] => NetworkBuilder::new(*n, lif),
        [c, h, w] => NetworkBuilder::new_spatial(*c, *h, *w, lif),
        _ => return Err("--input must be N or CxHxW".into()),
    };
    for stage in arch.split(',') {
        let parts: Vec<&str> = stage.split(':').collect();
        let num = |i: usize| -> Result<usize, String> {
            parts
                .get(i)
                .ok_or_else(|| format!("stage `{stage}`: missing field {i}"))?
                .parse()
                .map_err(|e| format!("stage `{stage}`: {e}"))
        };
        builder = match parts[0] {
            "dense" => builder.dense(num(1)?),
            "recurrent" => builder.recurrent(num(1)?),
            "pool" => builder.avg_pool(num(1)?),
            "conv" => builder.conv(num(1)?, num(2)?, num(3)?, num(4)?),
            other => return Err(format!("unknown stage kind `{other}`")),
        };
    }
    let mut net = builder.build(&mut rng);
    net.validate_widths()?;
    if let Some(sparsity) = num_flag::<f64>(args, "--sparsity")? {
        if !(0.0..=1.0).contains(&sparsity) {
            return Err(format!("--sparsity {sparsity} is outside [0, 1]"));
        }
        let zeroed = snn_mtfc::model::magnitude_prune(&mut net, sparsity);
        println!("pruned {zeroed} weights (magnitude, fraction {sparsity})");
    }
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    net.save(&mut w).map_err(|e| format!("cannot write {out}: {e}"))?;
    w.flush().map_err(|e| e.to_string())?;
    println!("{}", net.summary());
    println!("wrote {out}");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("missing model path")?;
    let net = load_model(path)?;
    let universe = FaultUniverse::standard(&net);
    let (analysis, collector) = with_trace(|| Ok(snn_mtfc::analyze::analyze(&net, &universe)));
    let analysis = analysis?;
    write_trace_out(args, &collector)?;
    use snn_mtfc::analyze::report;
    match flag(args, "--format").unwrap_or("text") {
        "text" => out(report::render_text(path, &analysis)),
        "json" => println!("{}", report::render_json(path, &analysis)),
        other => return Err(format!("unknown format `{other}` (text|json)")),
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("missing model path")?;
    let net = load_model(path)?;
    out(net.summary());
    let universe = FaultUniverse::standard(&net);
    println!(
        "fault universe: {} faults ({} neuron, {} synapse)",
        universe.len(),
        universe.neuron_fault_count(),
        universe.synapse_fault_count()
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("missing model path")?;
    let net = load_model(path)?;
    let cfg = TestGenConfig::preset(flag(args, "--preset").unwrap_or("repro"))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed_of(args)?);
    let (test, collector) = with_trace(|| Ok(TestGenerator::new(&net, cfg).generate(&mut rng)));
    let test = test?;
    println!(
        "generated {} chunk(s), {} ticks, {:.1}% neurons activated, in {:?}",
        test.chunks.len(),
        test.test_steps(),
        test.activated_fraction() * 100.0,
        test.runtime
    );
    let (generation, fault_sim, total) = runtimes_from_spans(&collector.finished());
    println!("runtimes: generation {generation:.2?}, fault-sim {fault_sim:.2?}, total {total:.2?}");
    write_trace_out(args, &collector)?;
    if let Some(out) = flag(args, "--out") {
        let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        let mut w = BufWriter::new(file);
        test.write_events(&mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

/// The `--addr` flag, defaulting to [`DEFAULT_ADDR`].
fn addr_of(args: &[String]) -> String {
    flag(args, "--addr").unwrap_or(DEFAULT_ADDR).to_string()
}

/// Parses an optional numeric flag.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match flag(args, name) {
        None => Ok(None),
        Some(s) => s.parse().map(Some).map_err(|e| format!("bad {name}: {e}")),
    }
}

fn connect(args: &[String]) -> Result<Client, String> {
    let addr = addr_of(args);
    Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Parses the first non-flag argument as a job id.
fn job_id_of(args: &[String]) -> Result<u64, String> {
    let raw = positional(args, 0).ok_or("missing job id")?;
    raw.parse().map_err(|e| format!("bad job id `{raw}`: {e}"))
}

fn print_record(record: &JobRecord) {
    let mut line = format!("job {}: {}", record.id, record.state);
    if let Some(result) = &record.result {
        line.push_str(&format!(
            " — {} chunk(s), {} ticks, {:.1}% neurons activated, {} ms",
            result.chunks,
            result.test_steps,
            result.activation_coverage * 100.0,
            result.runtime_ms
        ));
        if let (Some(detected), Some(total)) = (result.faults_detected, result.faults_total) {
            line.push_str(&format!(", fault coverage {detected}/{total}"));
            if let Some(digest) = &result.verdict_digest {
                line.push_str(&format!(", verdict digest {digest}"));
            }
        }
        if let Some(t) = &result.timings {
            line.push_str(&format!(
                ", timings: queue {}ms, analyze {}ms, generation {}ms, fault-sim {}ms",
                t.queue_wait_ms, t.analyze_ms, t.generation_ms, t.fault_sim_ms
            ));
        }
        if let Some(path) = &result.events_path {
            line.push_str(&format!(", events at {path}"));
        }
        if let Some(rel) = &result.reliability {
            line.push_str(&format!(
                ", reliability: baseline {:.3} → faulty {:.3} → mitigated {:.3} \
                 ({}, {} config(s), digest {})",
                rel.baseline_accuracy,
                rel.faulty_accuracy,
                rel.mitigated_accuracy,
                rel.mitigation,
                rel.configs,
                rel.digest
            ));
        }
    } else if let Some(progress) = &record.progress {
        line.push_str(&format!(" — {}", progress_line(progress)));
    }
    if let Some(error) = &record.error {
        line.push_str(&format!(" ({error})"));
    }
    println!("{line}");
}

fn progress_line(progress: &Progress) -> String {
    match progress {
        Progress::Iteration {
            iteration,
            chunk_steps,
            newly_activated,
            activated,
            total_neurons,
            ..
        } => {
            format!(
                "iteration {iteration}: +{newly_activated} neurons \
                 ({activated}/{total_neurons} activated), chunk {chunk_steps} ticks"
            )
        }
        Progress::FaultsSimulated { done, total, detected } => {
            format!("faults {done}/{total} simulated, {detected} detected")
        }
    }
}

fn print_event(event: &JobEvent) {
    match &event.payload {
        JobEventPayload::State { job, state, error } => match error {
            Some(error) => println!("job {job}: {state} ({error})"),
            None => println!("job {job}: {state}"),
        },
        JobEventPayload::Progress { job, progress } => {
            println!("job {job}: {}", progress_line(progress))
        }
    }
}

/// Prints one event as its raw JSON wire form (the `--json` watch mode).
fn print_event_json(event: &JobEvent) {
    println!("{}", serde::json::to_string(event));
}

/// The watch event printer selected by `--json`.
fn event_printer(args: &[String]) -> fn(&JobEvent) {
    if args.iter().any(|a| a == "--json") {
        print_event_json
    } else {
        print_event
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let state_dir = flag(args, "--state-dir").ok_or("missing --state-dir")?;
    let expect_workers = num_flag(args, "--expect-workers")?.unwrap_or(0);
    let config = ServiceConfig {
        addr: addr_of(args),
        workers: num_flag(args, "--workers")?.unwrap_or(0),
        queue_capacity: num_flag(args, "--queue")?.unwrap_or(64),
        state_dir: state_dir.into(),
        expect_workers,
        chunk_size: num_flag(args, "--chunk-size")?.unwrap_or(256),
        lease_ms: num_flag(args, "--lease-ms")?.unwrap_or(5000),
    };
    let metrics_dump = flag(args, "--metrics-dump").map(str::to_string);
    let trace_out = flag(args, "--trace-out").map(str::to_string);
    // With --trace-out the server collects its own spans plus the ones
    // workers ship back with traced campaigns, and writes the merged
    // tree on shutdown.
    let collector = trace_out.as_ref().map(|_| {
        let collector = Arc::new(obs::Collector::new());
        obs::trace::install(Arc::clone(&collector));
        collector
    });
    let server = Server::bind(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("listening on {} (state in {state_dir})", server.local_addr());
    if expect_workers > 0 {
        println!("coverage campaigns wait for {expect_workers} cluster worker(s)");
    }
    server.run().map_err(|e| format!("server failed: {e}"))?;
    if let Some(path) = metrics_dump {
        let rendered = obs::metrics::render_prometheus(&obs::metrics::global().snapshot());
        std::fs::write(&path, rendered).map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        println!("wrote metrics {path}");
    }
    if let (Some(path), Some(collector)) = (trace_out, collector) {
        obs::trace::uninstall();
        collector
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        println!("wrote trace {path}");
    }
    Ok(())
}

/// Parses an `IxH..xO` layer-size list into a synthetic model spec.
fn synthetic_model(dims: &str, seed: u64) -> Result<ModelSpec, String> {
    let sizes: Vec<usize> = dims
        .split('x')
        .map(|d| d.parse().map_err(|e| format!("bad --synthetic: {e}")))
        .collect::<Result<_, _>>()?;
    if sizes.len() < 2 {
        return Err("--synthetic needs at least inputs and outputs, e.g. 6x12x4".into());
    }
    Ok(ModelSpec::Synthetic {
        inputs: sizes[0],
        hidden: sizes[1..sizes.len() - 1].to_vec(),
        outputs: sizes[sizes.len() - 1],
        seed,
    })
}

/// Resolves `--model`/`--synthetic` into a model spec.
fn model_spec_of(args: &[String]) -> Result<ModelSpec, String> {
    match (flag(args, "--model"), flag(args, "--synthetic")) {
        (Some(path), None) => Ok(ModelSpec::Path(path.to_string())),
        (None, Some(dims)) => synthetic_model(dims, seed_of(args)?),
        _ => Err("exactly one of --model or --synthetic is required".into()),
    }
}

/// Builds a reliability spec from the CLI flags against the resolved
/// network (the uniform fault map needs its topology).
fn reliability_spec_of(
    args: &[String],
    net: &Network,
) -> Result<snn_mtfc::reliability::ReliabilitySpec, String> {
    use snn_mtfc::reliability::{
        EvalSpec, FaultMapSpec, MitigationKind, ReliabilitySpec, WeightFaultModel,
    };
    let weight_model = match flag(args, "--fault-model").unwrap_or("stuck") {
        "stuck" => WeightFaultModel::StuckSat,
        "bitflip" => WeightFaultModel::BitFlip,
        other => return Err(format!("unknown --fault-model `{other}` (stuck|bitflip)")),
    };
    let window = match flag(args, "--window") {
        None => None,
        Some(text) => {
            let (a, b) = text
                .split_once(':')
                .ok_or_else(|| format!("bad --window `{text}` (expected T0:T1)"))?;
            let start = a.parse().map_err(|e| format!("bad --window start: {e}"))?;
            let end = b.parse().map_err(|e| format!("bad --window end: {e}"))?;
            Some(snn_mtfc::faults::TransientWindow::new(start, end))
        }
    };
    let map = FaultMapSpec::uniform(
        net,
        num_flag(args, "--weight-ber")?.unwrap_or(0.002),
        num_flag(args, "--neuron-ber")?.unwrap_or(0.0),
        num_flag(args, "--configs")?.unwrap_or(32),
        seed_of(args)?,
        weight_model,
        window,
    );
    let eval = EvalSpec {
        samples: num_flag(args, "--samples")?.unwrap_or(16),
        steps: num_flag(args, "--steps")?.unwrap_or(20),
        rate: num_flag(args, "--rate")?.unwrap_or(0.3),
        seed: num_flag(args, "--eval-seed")?.unwrap_or(7),
    };
    let mitigation = MitigationKind::parse(flag(args, "--mitigation").unwrap_or("none"))?;
    Ok(ReliabilitySpec { map, eval, mitigation })
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let model = model_spec_of(args)?;
    let reliability = if args.iter().any(|a| a == "--reliability") {
        let net = snn_mtfc::cluster::build_model(&model)?;
        Some(reliability_spec_of(args, &net)?)
    } else {
        None
    };
    let spec = JobSpec {
        model,
        preset: flag(args, "--preset").unwrap_or("repro").to_string(),
        seed: seed_of(args)?,
        max_iterations: num_flag(args, "--max-iterations")?,
        t_limit_secs: num_flag(args, "--t-limit")?,
        evaluate_coverage: args.iter().any(|a| a == "--coverage"),
        threads: num_flag(args, "--threads")?.unwrap_or(0),
        reliability,
        engine: engine_flag(args)?,
    };
    let mut client = connect(args)?;
    let job = client.submit(spec)?;
    println!("submitted job {job}");
    if args.iter().any(|a| a == "--watch") {
        let record = client.watch(job, event_printer(args))?;
        print_record(&record);
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut client = connect(args)?;
    match positional(args, 0) {
        Some(_) => print_record(&client.status(job_id_of(args)?)?),
        None => {
            let records = client.list()?;
            if records.is_empty() {
                println!("no jobs");
            }
            for record in &records {
                print_record(record);
            }
        }
    }
    Ok(())
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let job = job_id_of(args)?;
    let json = args.iter().any(|a| a == "--json");
    let record = connect(args)?.watch(job, event_printer(args))?;
    if json {
        println!("{}", serde::json::to_string(&record));
    } else {
        print_record(&record);
    }
    Ok(())
}

fn cmd_cancel(args: &[String]) -> Result<(), String> {
    let job = job_id_of(args)?;
    connect(args)?.cancel(job)?;
    println!("cancellation requested for job {job}");
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    connect(args)?.shutdown()?;
    println!("server shutting down");
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let model_path = positional(args, 0).ok_or("missing model path")?;
    let test_path = positional(args, 1).ok_or("missing test path")?;
    let net = load_model(model_path)?;
    let mut text = String::new();
    File::open(test_path)
        .map_err(|e| format!("cannot open {test_path}: {e}"))?
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let stimulus = parse_events(&text)?;
    if stimulus.shape().dim(0) == 0 {
        return Err(format!("{test_path} contains no events"));
    }
    if stimulus.shape().dim(1) != net.input_features() {
        return Err(format!(
            "test has {} features, model expects {}",
            stimulus.shape().dim(1),
            net.input_features()
        ));
    }
    let universe = FaultUniverse::standard(&net);
    let cfg = FaultSimConfig { engine: engine_flag(args)?, ..FaultSimConfig::default() };
    let sim = snn_mtfc::faults::FaultSimulator::new(&net, cfg);
    let resolved = snn_mtfc::faults::resolve_engine(&net, cfg.engine);
    let cancel = snn_mtfc::faults::CancelToken::new();
    let (outcome, collector) = with_trace(|| {
        sim.detect_with(
            &universe,
            universe.faults(),
            std::slice::from_ref(&stimulus),
            &snn_mtfc::faults::NullSink,
            &cancel,
        )
        .map_err(|e| format!("campaign failed: {e}"))
    });
    let outcome = outcome?;
    println!("engine: {resolved}");
    if resolved == Engine::Packed {
        // What the campaign's planner did with the universe; the CI gate
        // requires `fallback: 0` on the example networks.
        let plan = sim.plan(universe.faults());
        println!(
            "packed: {} faults in {} runs, fallback: {}",
            plan.packed_faults(),
            plan.run_count(),
            plan.fallback_count()
        );
    }
    println!(
        "fault coverage: {:.2}% ({}/{} detected) in {:?}",
        outcome.fault_coverage() * 100.0,
        outcome.detected_count(),
        universe.len(),
        outcome.elapsed
    );
    // The engine-equality CI gate greps this line: packed and scalar
    // runs of the same campaign must print the same digest.
    println!("verdict digest: {}", snn_mtfc::faults::verdict_digest_hex(&outcome.per_fault));
    let (generation, fault_sim, total) = runtimes_from_spans(&collector.finished());
    println!("runtimes: generation {generation:.2?}, fault-sim {fault_sim:.2?}, total {total:.2?}");
    write_trace_out(args, &collector)?;
    Ok(())
}

/// Renders the span tree of a `--trace-out` JSONL file with per-node
/// total and self times.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let path = positional(args, 0).ok_or("missing trace path")?;
    let mut text = String::new();
    File::open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let records = obs::trace::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path} contains no spans"));
    }
    out(obs::profile::render(&obs::profile::build(&records)));
    if args.iter().any(|a| a == "--phases") {
        println!("");
        out(obs::profile::render_phases(&records));
    }
    Ok(())
}

/// Fetches the server's metrics snapshot and prints it in Prometheus
/// text format 0.0.4.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let snapshot = connect(args)?.metrics()?;
    out(obs::metrics::render_prometheus(&snapshot));
    Ok(())
}

/// Runs a cluster worker process: connects to the coordinator, leases
/// chunks, simulates them, and streams results back until shutdown.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let addr = addr_of(args);
    let name = flag(args, "--name")
        .map(str::to_string)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let threads = num_flag(args, "--threads")?.unwrap_or(0);
    let trace = args.iter().any(|a| a == "--trace");
    println!("worker {name} connecting to {addr}");
    let report = snn_mtfc::cluster::run_worker(&snn_mtfc::cluster::WorkerConfig {
        addr: addr.clone(),
        name: name.clone(),
        threads,
        trace,
    })
    .map_err(|e| format!("worker failed: {e}"))?;
    let ms = |us: u64| us as f64 / 1e3;
    println!(
        "worker {name} done: {} chunk(s), {} fault(s), {} abandoned; \
         run {:.1} ms, wire {:.1} ms, idle {:.1} ms",
        report.chunks,
        report.faults,
        report.abandoned,
        ms(report.run_us),
        ms(report.wire_us),
        ms(report.idle_us)
    );
    Ok(())
}

/// Prints the coordinator's view of the cluster: known workers, their
/// held leases, and the chunk accounting counters.
fn cmd_cluster_status(args: &[String]) -> Result<(), String> {
    let status = connect(args)?.cluster_status()?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", serde::json::to_string(&status));
        return Ok(());
    }
    println!(
        "cluster: {} worker(s), {} campaign(s) active",
        status.workers.len(),
        status.campaigns_active
    );
    println!(
        "chunks: {} pending, {} leased, {} completed, {} reissued, {} stale result(s)",
        status.chunks_pending,
        status.chunks_leased,
        status.chunks_completed,
        status.chunks_reissued,
        status.results_stale
    );
    for w in &status.workers {
        let lease = match &w.lease {
            Some(l) => format!(
                "lease {} (campaign {}, chunk {}, expires in {} ms)",
                l.lease, l.campaign, l.chunk, l.expires_in_ms
            ),
            None => "idle".to_string(),
        };
        println!(
            "  {}: {} chunk(s) done, busy {} ms, seen {} ms ago, {lease}",
            w.name, w.chunks_completed, w.busy_ms, w.last_seen_ms
        );
    }
    Ok(())
}

/// Runs a fault-map reliability campaign in this process. A cluster
/// runs the same campaign as a job: `serve --expect-workers N`, `worker`,
/// then `submit --reliability` (the digest is identical either way).
fn cmd_reliability(args: &[String]) -> Result<(), String> {
    use snn_mtfc::reliability::{ReliabilityEvaluator, ReliabilityReport};
    let net = snn_mtfc::cluster::build_model(&model_spec_of(args)?)?;
    let rspec = reliability_spec_of(args, &net)?;
    let evaluator = ReliabilityEvaluator::new(net.clone(), rspec.clone())?;
    let threads = num_flag(args, "--threads")?.unwrap_or(0);
    let cancel = snn_mtfc::faults::progress::CancelToken::new();
    let outcomes = evaluator
        .evaluate_chunk(0..rspec.map.configs, threads, &cancel)
        .map_err(|_| "campaign cancelled".to_string())?;
    let report = ReliabilityReport::build(&net, &rspec, &outcomes)?;

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde::json::to_string(&report));
    } else {
        print_reliability_report(&report);
    }
    Ok(())
}

/// Renders a reliability report in the human format.
fn print_reliability_report(report: &snn_mtfc::reliability::ReliabilityReport) {
    println!(
        "reliability: {} config(s) × {} sample(s), mitigation {}",
        report.configs, report.samples, report.mitigation
    );
    println!(
        "accuracy: baseline {:.3}, faulty {:.3}, mitigated {:.3} (recovered {:+.3})",
        report.baseline_accuracy,
        report.faulty_accuracy,
        report.mitigated_accuracy,
        report.recovered()
    );
    println!(
        "drop: mean {:.3}, p95 {:.3}, worst {:.3}; mitigated: mean {:.3}, p95 {:.3}, worst {:.3}",
        report.drop.mean,
        report.drop.p95,
        report.drop.worst,
        report.mitigated_drop.mean,
        report.mitigated_drop.p95,
        report.mitigated_drop.worst
    );
    println!("mean output-spike delta: {:.3}", report.mean_spike_delta);
    println!("regions (most critical first):");
    for r in &report.regions {
        println!(
            "  {}: hit in {} config(s), mean drop {:.3}",
            r.region, r.configs_hit, r.mean_drop
        );
    }
    println!("digest: {}", report.digest);
}
