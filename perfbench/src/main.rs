//! UniKV benchmark: end-to-end and per-layer metrics under four
//! YCSB-shaped workloads.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb_a --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run: set the database up [`SETUPS`] times (open, preload in random
//! order, wait for background work) and keep the last; drive it with
//! closed-loop clients for `--seconds`; drain background work; close,
//! reopen and read every key back. Every `get` and `scan` result is
//! checked against an in-memory model, outside the timed interval.
//! Throughput and latency are medians over the one-second windows of the
//! measured phase; `setup_s` is the median set-up time.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every `UniKv` call and env call and prints the per-layer
//! metrics, a time budget and the stage profiles of sampled ops. The last
//! line of standard output is the JSON result. Databases live under
//! `.bench_data/` in the working directory and are removed at the end; a
//! traced run leaves its spans in `.bench_data/trace/`.

mod env;
mod hist;
mod report;
mod trace;
mod workload;

use env::{ClassEnv, IoCounters};
use report::{RunData, Traced};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{MaintListener, Tracer};
use unikv::UniKv;
use unikv_env::fs::FsEnv;
use unikv_env::Env;
use workload::{ClientCtx, OpStream, Shard, Spec, Window, KEY_SIZE, VALUE_SIZE};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of one window of the measured phase; throughput and latency
/// are medians over windows.
const WINDOW: Duration = Duration::from_secs(1);
/// Resident-memory sampling period.
const RSS_EVERY: Duration = Duration::from_millis(20);
/// Where databases and trace files go, relative to the working directory.
const DATA_DIR: &str = ".bench_data";

const USAGE: &str =
    "usage: unikv-perfbench --workload <ycsb_a|ycsb_c_cached|ycsb_e_short|update_uniform_2c> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::spec(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = Path::new(DATA_DIR).join(format!("{}-{}", args.workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match result {
        Ok((d, notes)) => {
            for n in &notes {
                eprintln!("perfbench: {n}");
            }
            let correct = d.failed == 0;
            println!("{}", summary(&args, &d));
            let metrics = if args.trace {
                report::per_layer(&d)
            } else {
                report::end_to_end(&d)
            };
            println!(
                "{}",
                report::result_json(correct, d.attempted, d.failed, &metrics)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn summary(args: &Args, d: &RunData) -> String {
    let spec = args.workload;
    let mut out = format!(
        "workload {} seed {}: {} records, {} client(s), background_jobs {}, {} ops in {:.3} s\n",
        spec.name,
        args.seed,
        spec.records,
        spec.clients,
        spec.background_jobs,
        d.ops(),
        d.wall_s
    );
    out.push_str(&report::render_latency_table(d));
    if let Some(t) = &d.traced {
        out.push_str(&report::render_metrics(
            "per-layer metrics (traced run)",
            &report::per_layer(d),
        ));
        out.push_str(&report::render_budget(d, t));
        out.push_str(&report::render_stage_tables(t));
    } else {
        out.push_str(&report::render_metrics(
            "end-to-end metrics",
            &report::end_to_end(d),
        ));
    }
    out.trim_end().to_string()
}

fn diff(after: BTreeMap<String, u64>, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .into_iter()
        .map(|(k, v)| {
            let d = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
            (k, d)
        })
        .collect()
}

fn stats_of(db: &UniKv) -> BTreeMap<String, u64> {
    db.stats()
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// On-disk bytes under `dir` ÷ the user bytes of `records` live records.
fn space_amp(dir: &Path, records: u64) -> f64 {
    dir_bytes(dir) as f64 / (records * (KEY_SIZE + VALUE_SIZE) as u64) as f64
}

/// Resident memory of this process, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// What the resource sampler saw during the measured phase.
struct Samples {
    peak_rss: u64,
    space_amp: Vec<f64>,
}

/// Runs beside the clients until their deadline: samples resident memory
/// every [`RSS_EVERY`] and the database's space amplification at every
/// window boundary.
fn sample_resources(cx: &ClientCtx, dir: &Path, records: u64) -> Samples {
    let mut out = Samples {
        peak_rss: rss_bytes(),
        space_amp: Vec::new(),
    };
    let mut next_window = cx.start + cx.window;
    loop {
        let now = Instant::now();
        if now >= next_window {
            let live = records + cx.inserted.load(Ordering::Relaxed);
            out.space_amp.push(space_amp(dir, live));
            next_window += cx.window;
        }
        out.peak_rss = out.peak_rss.max(rss_bytes());
        if now >= cx.deadline() {
            return out;
        }
        std::thread::sleep(RSS_EVERY.min(next_window.saturating_duration_since(now)));
    }
}

/// Hand the heap freed by the discarded set-ups back to the OS, so that
/// resident memory in the measured phase belongs to the kept database and
/// not to what the allocator retained from earlier ones.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only
        // returns free pages of the allocator's own arenas to the OS, and
        // is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

type Failure = Box<dyn std::error::Error>;

fn run(args: &Args, root: &Path) -> Result<(RunData, Vec<String>), Failure> {
    let spec = args.workload;
    let counters = Arc::new(IoCounters::default());
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));
    let listener = args.trace.then(|| Arc::new(MaintListener::default()));
    let env: Arc<dyn Env> = Arc::new(ClassEnv::new(
        FsEnv::shared(),
        counters.clone(),
        tracer.clone(),
    ));
    let mut opts = spec.options();
    if let Some(l) = &listener {
        opts.listeners.push(l.clone());
    }
    let mut d = RunData::default();
    let mut notes = Vec::new();

    // Set up several times; keep the last database.
    let mut kept = None;
    for round in 0..SETUPS {
        let dir = root.join(format!("setup{round}"));
        let io_created = counters.snapshot();
        let t = Instant::now();
        let db = UniKv::open(env.clone(), &dir, opts.clone())?;
        let shard = workload::preload(&db, spec.records, args.seed)?;
        db.wait_for_background();
        d.setup_s.push(t.elapsed().as_secs_f64());
        if round + 1 == SETUPS {
            kept = Some((db, shard, io_created, dir));
        } else {
            drop(db);
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let (db, shard, io_created, dir): (UniKv, Shard, _, PathBuf) = kept.expect("SETUPS > 0");

    // Measured phase.
    release_freed_heap();
    let stats0 = stats_of(&db);
    let counters0 = db.metrics_snapshot().counters;
    let io0 = counters.snapshot();
    let env0 = tracer.as_ref().map(|t| t.env_times());
    let jobs0 = listener.as_ref().map(|l| l.totals());
    if let Some(t) = &tracer {
        t.set_recording(true);
    }
    let inserted = AtomicU64::new(0);
    let cx = ClientCtx {
        db: &db,
        start: Instant::now(),
        window: WINDOW,
        windows: args.seconds as usize,
        tracer: tracer.as_deref(),
        inserted: &inserted,
    };
    let (results, samples) = std::thread::scope(|s| {
        let handles: Vec<_> = shard
            .split(spec.clients)
            .into_iter()
            .enumerate()
            .map(|(c, mut sh)| {
                let (cx, stream) = (&cx, OpStream::new(spec, args.seed, c));
                s.spawn(move || (workload::run_client(cx, c, stream, &mut sh), sh))
            })
            .collect();
        let samples = sample_resources(&cx, &dir, spec.records);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, samples)
    });
    let start = cx.start;
    if let Some(t) = &tracer {
        t.set_recording(false);
    }
    d.stats = diff(stats_of(&db), &stats0);
    d.counters = diff(db.metrics_snapshot().counters, &counters0);
    d.io = counters.snapshot().since(&io0);
    d.index_memory_bytes = db.index_memory_bytes() as u64;
    d.partitions = db.partition_count() as u64;

    d.window_s = WINDOW.as_secs_f64();
    d.windows = vec![Window::default(); cx.windows];
    d.peak_rss_bytes = samples.peak_rss;
    d.space_amp = samples.space_amp;
    let mut shards = Vec::new();
    let mut client_trace = workload::ClientTrace::default();
    let mut thread_ns = 0;
    let mut last_end = start;
    for (out, sh) in results {
        shards.push(sh);
        let end = out.end.unwrap_or(start);
        last_end = last_end.max(end);
        thread_ns += end.duration_since(start).as_nanos() as u64;
        for (w, window) in out.windows.iter().enumerate() {
            for (k, lat) in window.iter().enumerate() {
                d.windows[w][k].merge(lat);
            }
        }
        for k in 0..3 {
            client_trace.self_ns[k] += out.trace.self_ns[k];
            client_trace.prof[k].merge(&out.trace.prof[k]);
        }
        client_trace.gen_ns += out.trace.gen_ns;
        client_trace.oracle_ns += out.trace.oracle_ns;
        client_trace.queue_depth_max = client_trace.queue_depth_max.max(out.trace.queue_depth_max);
        d.failed += out.failed;
        notes.extend(out.notes);
    }
    d.wall_s = last_end.duration_since(start).as_secs_f64();
    if let (Some(t), Some(env0), Some(l), Some(jobs0)) = (&tracer, env0, &listener, jobs0) {
        let jobs = l.totals();
        d.traced = Some(Traced {
            env: t.env_times().since(&env0),
            jobs: std::array::from_fn(|j| trace::JobTotals {
                count: jobs[j].count - jobs0[j].count,
                micros: jobs[j].micros - jobs0[j].micros,
                bytes_written: jobs[j].bytes_written - jobs0[j].bytes_written,
            }),
            client: client_trace,
            thread_ns,
        });
        let trace_dir = Path::new(DATA_DIR).join("trace");
        std::fs::create_dir_all(&trace_dir)?;
        let file = trace_dir.join(format!("{}-seed{}.tsv", spec.name, args.seed));
        t.write_tsv(&file)?;
        let (kept, past_cap) = t.span_counts();
        notes.push(format!(
            "{kept} spans written to {} ({past_cap} past the cap)",
            file.display()
        ));
    }

    // Drain, measure space, close, reopen and read everything back.
    db.wait_for_background();
    if let Some(e) = db.background_error() {
        return Err(format!("background maintenance failed: {e}").into());
    }
    d.device_bytes_written = counters.snapshot().since(&io_created).written_total();
    d.user_bytes_written = db.stats().user_bytes_written.load(Ordering::Relaxed);
    let shard = Shard::join(shards);
    let live_records = shard.versions.len() as u64;
    d.space_amp.push(space_amp(&dir, live_records));
    drop(db);
    let db = UniKv::open(env, &dir, opts)?;
    let (wrong, verify_notes) = workload::verify_all(&db, &shard);
    drop(db);
    d.attempted = d.ops() + live_records;
    d.failed += wrong;
    notes.extend(verify_notes);
    Ok((d, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload ycsb_e_short --seed 42 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("ycsb_e_short", 42, 3, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload ycsb_a --trace 2").is_err());
        assert!(parse("--workload ycsb_a --seed").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
