//! `perfbench` — the repository's benchmark: one command, two clocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ucr_get_small --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one named workload through the public `rmc` client/server API on
//! Cluster B as a closed loop, checks every value read, and prints every
//! metric by name, unit and clock; the last stdout line is one JSON
//! object. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (including a profiled run). See `perfbench/README.md`.
//!
//! Every round (set-up plus timed phase), the layer timings and the
//! host-speed reference run in child processes of this same executable
//! (`--child round|layers|reference`), so each starts from an empty heap
//! and its peak memory is its own. Host-clock metrics are scaled to the
//! reference's nominal speed (see `reference.rs`).

mod layers;
mod reference;
mod round;
mod spec;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant; // lint:allow(R1) host-clock harness: bounds each run's measuring time

use round::{untraced_view, Round, Virt};
use simnet::PathStage;
use spec::{Op, Spec};

/// Seed offset of the determinism probe: a round on `seed ^ PROBE` must
/// change the virtual-clock results.
const PROBE: u64 = 0x5eed_0ff5e7;
/// Untraced rounds per run, at least (the repeat-equality check needs two).
const MIN_ROUNDS: usize = 3;
/// Traced rounds per traced run, at least.
const MIN_TRACED: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Child {
    Round,
    Layers,
    Reference,
}

struct Args {
    workload: String,
    seed: u64,
    /// Required by a run and by `--child layers`.
    seconds: Option<f64>,
    /// Required by a run and by `--child round`.
    trace: Option<bool>,
    child: Option<Child>,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "round" => Child::Round,
                    "layers" => Child::Layers,
                    "reference" => Child::Reference,
                    _ => return Err(bad("expected round, layers or reference")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_none() && matches!(child, None | Some(Child::Layers)) {
        return Err("--seconds is required".into());
    }
    if trace.is_none() && matches!(child, None | Some(Child::Round)) {
        return Err("--trace is required".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<&str> = spec::all().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match (args.child, args.seconds, args.trace) {
        (Some(Child::Round), _, Some(traced)) => {
            let inputs = std::rc::Rc::new(spec::generate(&spec, args.seed));
            let r = round::run(&spec, &inputs, args.seed, traced);
            let mut line = format!(
                "round setup_s={:?} timed_s={:?} rss_mib={:?}",
                r.setup_s, r.timed_s, r.rss_mib
            );
            for (k, v) in &r.virt {
                let _ = write!(line, " {k}={v}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        (Some(Child::Reference), _, _) => {
            println!("reference ref_s={:?}", reference::run());
            ExitCode::SUCCESS
        }
        (Some(Child::Layers), Some(seconds), _) => {
            let inputs = spec::generate(&spec, args.seed);
            let share = seconds / 4.0;
            println!(
                "layers ucr={:?} socksim={:?} proto={:?} store={:?}",
                layers::ucr_ns_per_msg(&inputs, args.seed, share),
                layers::socksim_ns_per_kib(&inputs, args.seed, share),
                layers::proto_ns_per_req(&inputs, share),
                layers::store_ns_per_key(&spec, &inputs, share),
            );
            ExitCode::SUCCESS
        }
        (None, Some(seconds), Some(trace)) => {
            println!("provenance {}", provenance(&argv, &args, &spec));
            match run(&spec, args.seed, seconds, trace) {
                Ok(report) => {
                    report.print(if trace { &PER_LAYER } else { &END_TO_END });
                    if report.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => unreachable!("parse_args checked the flags each mode needs"),
    }
}

/// Runs this executable as a child with `flags` and returns the
/// `key=value` fields of its last stdout line, which must start with
/// `tag`. Waits for the child to end.
fn child(
    workload: &str,
    seed: u64,
    flags: &[&str],
    tag: &str,
) -> Result<BTreeMap<String, String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed])
        .args(flags)
        .output()
        .map_err(|e| format!("starting a {tag} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.starts_with(tag) {
        return Err(format!(
            "{tag} process (seed {seed}) failed with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(line
        .split_whitespace()
        .skip(1)
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn run_round(spec: &Spec, seed: u64, traced: bool) -> Result<Round, String> {
    let trace = if traced { "1" } else { "0" };
    let mut f = child(
        spec.name,
        seed,
        &["--trace", trace, "--child", "round"],
        "round",
    )?;
    let mut host = |k: &str| -> Result<f64, String> {
        f.remove(k)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("round output lacks {k}"))
    };
    let (setup_s, timed_s, rss_mib) = (host("setup_s")?, host("timed_s")?, host("rss_mib")?);
    let virt = f
        .into_iter()
        .map(|(k, v)| {
            v.parse()
                .map(|v| (k.clone(), v))
                .map_err(|_| format!("bad count {k}={v}"))
        })
        .collect::<Result<Virt, String>>()?;
    Ok(Round {
        virt,
        setup_s,
        timed_s,
        rss_mib,
    })
}

/// The host-speed reference, run in a child right before `seed`'s next
/// measurement: the factor that scales that measurement's host times to
/// the reference's nominal speed.
fn speed_scale(spec: &Spec, seed: u64) -> Result<f64, String> {
    let f = child(spec.name, seed, &["--child", "reference"], "reference")?;
    let ref_s: f64 = f
        .get("ref_s")
        .and_then(|v| v.parse().ok())
        .ok_or("reference output lacks ref_s")?;
    Ok(reference::NOMINAL_S / ref_s)
}

/// A round and the speed scale measured just before it.
struct Sample {
    round: Round,
    scale: f64,
}

/// Runs rounds until `budget_s` of host time has passed (at least `min`),
/// each preceded by the host-speed reference.
fn rounds(
    spec: &Spec,
    seed: u64,
    traced: bool,
    budget_s: f64,
    min: usize,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now(); // lint:allow(R1) host-clock harness: bounds the measuring time
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let scale = speed_scale(spec, seed)?;
        out.push(Sample {
            round: run_round(spec, seed, traced)?,
            scale,
        });
    }
    Ok(out)
}

/// Every end-to-end metric (`--trace 0`) with its unit, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("vtput_kops", "kops/s"),
    ("vlat_p50_us", "us"),
    ("vlat_p99_us", "us"),
    ("get_hit_ratio", "ratio"),
    ("host_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric (`--trace 1`) with its unit, in
/// `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 38] = [
    ("host.wall_us_per_op", "us"),
    ("host.ref_ms", "ms"),
    ("engine.events_per_op", "count/op"),
    ("engine.polls_per_op", "count/op"),
    ("engine.host_ns_per_event", "ns"),
    ("fabric.hca_busy", "ratio"),
    ("fabric.hca_jobs_per_op", "count/op"),
    ("fabric.kernel_busy", "ratio"),
    ("vlock.wait_us_per_op", "us"),
    ("vlock.hold_us_per_op", "us"),
    ("vlock.contended_ratio", "ratio"),
    ("ucr.msgs_per_op", "count/op"),
    ("ucr.completions_per_wake", "count"),
    ("ucr.rndv_per_op", "count/op"),
    ("ucr.mr_cache_hit_ratio", "ratio"),
    ("ucr.bypass_reads_per_get", "ratio"),
    ("ucr.bypass_retry_ratio", "ratio"),
    ("ucr.bypass_fallback_ratio", "ratio"),
    ("ucr.host_ns_per_msg", "ns"),
    ("socksim.host_ns_per_kib", "ns/KiB"),
    ("proto.host_ns_per_req", "ns"),
    ("store.host_ns_per_key", "ns"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions_per_kop", "count/kop"),
    ("server.wakes_per_op", "count/op"),
    ("server.items_per_wake", "count"),
    ("server.queue_depth_high", "count"),
    ("client.batch_fallback_ops", "count"),
    ("path.issue_share", "ratio"),
    ("path.request_wire_share", "ratio"),
    ("path.worker_queue_share", "ratio"),
    ("path.lock_wait_share", "ratio"),
    ("path.lock_hold_share", "ratio"),
    ("path.service_share", "ratio"),
    ("path.response_wire_share", "ratio"),
    ("path.complete_share", "ratio"),
    ("path.residual_share", "ratio"),
    ("trace.host_overhead_ratio", "ratio"),
];

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Metric name -> (value, note on clock and base).
    values: BTreeMap<String, (f64, String)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, note: String) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.insert(name.clone(), (value, note)).is_none(),
            "metric {name} reported twice"
        );
    }

    /// Prints one line per metric of `table`, then the result JSON as the
    /// last line. Panics if the report does not cover `table` exactly.
    fn print(&self, table: &[(&str, &str)]) {
        assert_eq!(
            self.values
                .keys()
                .map(String::as_str)
                .collect::<std::collections::BTreeSet<_>>(),
            table.iter().map(|(n, _)| *n).collect(),
            "reported metrics differ from the metric table"
        );
        println!(
            "fail_ratio {} ({} failed of {} attempted requests)",
            ratio(self.failed, self.attempted),
            self.failed,
            self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let (value, note) = &self.values[*name];
            println!("{name:<28} {value:>14.4} {unit:<9} {note}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        for p in &self.problems {
            println!("FAIL: {p}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A count from a round's map; every name the report reads is always
/// present.
fn count(v: &Virt, name: &str) -> u64 {
    *v.get(name)
        .unwrap_or_else(|| panic!("round reported no {name}"))
}

fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        values: BTreeMap::new(),
    };

    let probe_seed = seed ^ PROBE;
    let probe = run_round(spec, probe_seed, false)?;
    let (plain_budget, traced_budget, layer_budget) = if trace {
        (0.35 * seconds, 0.35 * seconds, 0.30 * seconds)
    } else {
        (seconds, 0.0, 0.0)
    };
    let plain = rounds(spec, seed, false, plain_budget, MIN_ROUNDS)?;
    let traced = if trace {
        rounds(spec, seed, true, traced_budget, MIN_TRACED)?
    } else {
        Vec::new()
    };

    // Correctness: every request, then determinism of the virtual clock.
    let v = &plain[0].round.virt;
    let all = std::iter::once(&probe).chain(plain.iter().chain(&traced).map(|s| &s.round));
    for r in all {
        report.attempted += count(&r.virt, "attempted");
        report.failed += count(&r.virt, "failed");
    }
    if report.failed > 0 {
        report.problems.push(format!(
            "{} of {} requests failed (McError or value-check mismatch)",
            report.failed, report.attempted
        ));
    }
    if plain.iter().any(|s| s.round.virt != *v) {
        report
            .problems
            .push("virtual-clock results differ between repeats of one seed".into());
    }
    if traced.iter().any(|s| untraced_view(&s.round.virt) != *v) {
        report
            .problems
            .push("the profiled run changed virtual-clock results or counts".into());
    }
    if traced
        .windows(2)
        .any(|w| w[0].round.virt != w[1].round.virt)
    {
        report
            .problems
            .push("profiler attribution differs between repeats of one seed".into());
    }
    if probe.virt == *v {
        report.problems.push(format!(
            "seed {probe_seed} reproduced seed {}'s results",
            seed
        ));
    }
    report.correct = report.problems.is_empty();

    let ops = count(v, "lat.count");
    let us_per_op = |ss: &[Sample]| {
        median(
            ss.iter()
                .map(|s| s.round.timed_s * 1e6 / ops as f64 * s.scale)
                .collect(),
        )
    };
    if !trace {
        let vsecs = count(v, "elapsed_ns") as f64 / 1e9;
        let samples = format!("virtual, n={ops} requests");
        report.push("vtput_kops", ops as f64 / vsecs / 1e3, samples.clone());
        report.push(
            "vlat_p50_us",
            count(v, "lat.p50_ns") as f64 / 1e3,
            samples.clone(),
        );
        report.push("vlat_p99_us", count(v, "lat.p99_ns") as f64 / 1e3, samples);
        let (got, asked) = (count(v, "keys_returned"), count(v, "keys_requested"));
        report.push(
            "get_hit_ratio",
            ratio(got, asked),
            format!("virtual, {got} of {asked} keys"),
        );
        let n = plain.len();
        let raw = median(
            plain
                .iter()
                .map(|s| s.round.timed_s * 1e6 / ops as f64)
                .collect(),
        );
        report.push(
            "host_us_per_op",
            us_per_op(&plain),
            format!("host at reference speed, median of {n} rounds (raw wall {raw:.3} us)"),
        );
        let raw = median(plain.iter().map(|s| s.round.setup_s).collect());
        report.push(
            "setup_s",
            median(plain.iter().map(|s| s.round.setup_s * s.scale).collect()),
            format!("host at reference speed, median of {n} set-ups (raw wall {raw:.4} s)"),
        );
        report.push(
            "peak_rss_mib",
            median(plain.iter().map(|s| s.round.rss_mib).collect()),
            format!("host, VmHWM of a round process, median of {n}"),
        );
    } else {
        let scale = speed_scale(spec, seed)?;
        let f = child(
            spec.name,
            seed,
            &["--seconds", &layer_budget.to_string(), "--child", "layers"],
            "layers",
        )?;
        let layer = |k: &str| -> Result<f64, String> {
            f.get(k)
                .and_then(|v| v.parse::<f64>().ok())
                .map(|ns| ns * scale)
                .ok_or_else(|| format!("layers output lacks {k}"))
        };
        let timings = [
            layer("ucr")?,
            layer("socksim")?,
            layer("proto")?,
            layer("store")?,
        ];
        per_layer(&mut report, spec, seed, &plain, &traced, timings);
        let (traced_us, plain_us) = (us_per_op(&traced), us_per_op(&plain));
        report.push(
            "trace.host_overhead_ratio",
            traced_us / plain_us - 1.0,
            format!("host, traced {traced_us:.3} vs untraced {plain_us:.3} us/op"),
        );
    }
    Ok(report)
}

/// Every per-layer metric except the tracing overhead. `timings` are the
/// layer child's UCR, socksim, proto and store host timings, at
/// reference speed.
fn per_layer(
    report: &mut Report,
    spec: &Spec,
    seed: u64,
    plain: &[Sample],
    traced: &[Sample],
    timings: [f64; 4],
) {
    let v = &plain[0].round.virt;
    let c = |n: &str| count(v, n);
    let ops = c("lat.count");
    let per_op = |n: &str| ratio(c(n), ops);
    let gets = spec::generate(spec, seed)
        .per_client
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Get(_)))
        .count() as u64;
    let base = |what: &str| format!("virtual count, per {what}");

    // The raw wall time the scaled host metrics derive from, and the
    // reference time that scales them.
    report.push(
        "host.wall_us_per_op",
        median(
            plain
                .iter()
                .map(|s| s.round.timed_s * 1e6 / ops as f64)
                .collect(),
        ),
        format!("host, raw wall, median of {} rounds", plain.len()),
    );
    report.push(
        "host.ref_ms",
        median(
            plain
                .iter()
                .map(|s| reference::NOMINAL_S / s.scale * 1e3)
                .collect(),
        ),
        format!("host, reference nominal {} ms", reference::NOMINAL_S * 1e3),
    );

    report.push(
        "engine.events_per_op",
        per_op("engine.events"),
        base("request"),
    );
    report.push(
        "engine.polls_per_op",
        per_op("engine.polls"),
        base("request"),
    );
    report.push(
        "engine.host_ns_per_event",
        median(
            plain
                .iter()
                .map(|s| s.round.timed_s * 1e9 / c("engine.events") as f64 * s.scale)
                .collect(),
        ),
        format!("host at reference speed, median of {} rounds", plain.len()),
    );
    let elapsed = c("elapsed_ns");
    report.push(
        "fabric.hca_busy",
        ratio(c("fabric.hca_busy_ns"), elapsed),
        "virtual, server HCA busy / timed window".into(),
    );
    report.push(
        "fabric.hca_jobs_per_op",
        per_op("fabric.hca_jobs"),
        base("request"),
    );
    report.push(
        "fabric.kernel_busy",
        ratio(c("fabric.kernel_busy_ns"), elapsed),
        "virtual, server kernel busy / timed window".into(),
    );
    report.push(
        "vlock.wait_us_per_op",
        per_op("vlock.wait_ns") / 1e3,
        base("request"),
    );
    report.push(
        "vlock.hold_us_per_op",
        per_op("vlock.hold_ns") / 1e3,
        base("request"),
    );
    report.push(
        "vlock.contended_ratio",
        ratio(c("vlock.contended"), c("vlock.acquires")),
        format!("virtual, of {} acquisitions", c("vlock.acquires")),
    );
    report.push("ucr.msgs_per_op", per_op("ucr.msgs"), base("request"));
    report.push(
        "ucr.completions_per_wake",
        ratio(c("ucr.completions"), c("ucr.progress_wakes")),
        format!("virtual, of {} progress wakes", c("ucr.progress_wakes")),
    );
    report.push("ucr.rndv_per_op", per_op("ucr.rndv"), base("request"));
    let mr = c("ucr.mr_cache_hits") + c("ucr.mr_cache_misses");
    report.push(
        "ucr.mr_cache_hit_ratio",
        ratio(c("ucr.mr_cache_hits"), mr),
        format!("virtual, of {mr} registrations"),
    );
    for (name, counter) in [
        ("ucr.bypass_reads_per_get", "ucr.bypass_reads"),
        ("ucr.bypass_retry_ratio", "ucr.bypass_retries"),
        ("ucr.bypass_fallback_ratio", "ucr.bypass_fallbacks"),
    ] {
        report.push(
            name,
            ratio(c(counter), gets),
            format!("virtual, of {gets} gets"),
        );
    }
    let [ucr_ns, socksim_ns, proto_ns, store_ns] = timings;
    let host_note = |what: &str| format!("host at reference speed, median of replays, {what}");
    report.push(
        "ucr.host_ns_per_msg",
        ucr_ns,
        host_note("bare endpoint pair"),
    );
    report.push(
        "socksim.host_ns_per_kib",
        socksim_ns,
        host_note("SDP socket pair"),
    );
    report.push(
        "proto.host_ns_per_req",
        proto_ns,
        host_note("ASCII encode+parse, both directions"),
    );
    report.push(
        "store.host_ns_per_key",
        store_ns,
        host_note("SegmentedStore replay"),
    );
    let lookups = c("store.get_hits") + c("store.get_misses");
    report.push(
        "store.hit_ratio",
        ratio(c("store.get_hits"), lookups),
        format!("virtual, of {lookups} server lookups"),
    );
    report.push(
        "store.evictions_per_kop",
        per_op("store.evictions") * 1e3,
        base("1000 requests"),
    );
    report.push(
        "server.wakes_per_op",
        per_op("server.wakes"),
        base("request"),
    );
    report.push(
        "server.items_per_wake",
        ratio(c("server.batch_items"), c("server.wakes")),
        format!("virtual, of {} worker wakes", c("server.wakes")),
    );
    report.push(
        "server.queue_depth_high",
        c("server.queue_depth_high") as f64,
        "virtual, worker queue high-water mark".into(),
    );
    report.push(
        "client.batch_fallback_ops",
        c("client.batch_fallback_ops") as f64,
        "virtual, must stay 0".into(),
    );

    // Critical-path shares of the traced run, against the total latency
    // the benchmark itself measured: time the profiler could not tie to
    // a request lands in the residual.
    let t = &traced[0].round.virt;
    let total = c("lat.sum_ns");
    let path_note = format!(
        "virtual, of {total} ns over {ops} requests; {} paths, {} unmatched events",
        count(t, "path.completed"),
        count(t, "path.unmatched")
    );
    let mut attributed = 0;
    for s in PathStage::ALL {
        let ns = count(t, &format!("path.{}_ns", s.label()));
        attributed += ns;
        report.push(
            format!("path.{}_share", s.label()),
            ratio(ns, total),
            path_note.clone(),
        );
    }
    report.push(
        "path.residual_share",
        1.0 - ratio(attributed, total),
        path_note,
    );
}

/// The checkout's commit, read from `.git` in the working directory only
/// (an exported tree has none: "unknown").
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seed, argv, workload parameters, commit, host parallelism and build
/// profile, as one JSON object.
fn provenance(argv: &[String], args: &Args, spec: &Spec) -> String {
    let argv: Vec<String> = argv.iter().map(|a| json_str(a)).collect();
    format!(
        "{{\"seed\":{},\"argv\":[{}],\"workload\":{},\"params\":{},\"commit\":{},\"nproc\":{},\"build_profile\":{}}}",
        args.seed,
        argv.join(","),
        json_str(spec.name),
        spec.params_json(),
        json_str(&commit()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program reports,
    /// with the same units and in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = json[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {entry} (or out of order)"));
            at += found + entry.len();
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the program does not report"
        );
        for s in spec::all() {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", s.name)),
                "workload {}",
                s.name
            );
        }
    }

    #[test]
    fn child_flags_are_optional_only_where_unused() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(parse_args(&argv("pb --workload w --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&argv("pb --workload w --seed 1 --trace 1 --child round")).is_ok());
        assert!(parse_args(&argv("pb --workload w --seed 1 --seconds 2 --child layers")).is_ok());
        assert!(parse_args(&argv("pb --workload w --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&argv("pb --workload w --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("pb --workload w --seed 1 --seconds 2 --trace 2")).is_err());
    }
}
