//! Extension analysis: *where* a get's microseconds go (§VI-D).
//!
//! The profiler decomposes every timed operation's critical path from the
//! cluster tracer's event stream — issue, request wire, worker queue,
//! lock wait, lock hold, service, response wire, complete — on the one
//! virtual clock, so the per-stage means sum exactly to the end-to-end
//! mean (zero residual). This run decomposes a 4 KB get on Cluster A for
//! UCR vs 10GigE-TOE vs IPoIB: the wire stages collapse under OS-bypass
//! while the store's service stage is transport-invariant, which is the
//! paper's §VI-D argument in one table.

use rmc::Transport;
use rmc_bench::{measure_latency_attributed, ClusterKind, Mix};
use simnet::{PathStage, Stack};

fn main() {
    let cases = [
        ("UCR", Transport::Ucr),
        ("10GigE-TOE", Transport::Sockets(Stack::TenGigEToe)),
        ("IPoIB", Transport::Sockets(Stack::Ipoib)),
    ];
    println!("Extension: per-stage attribution of a 4 KB get, Cluster A (DDR), 60 ops");
    print!("{:>18}", "stage (us)");
    for (name, _) in cases {
        print!("{name:>12}");
    }
    println!();
    let reports: Vec<_> = cases
        .iter()
        .map(|(_, t)| measure_latency_attributed(ClusterKind::A, *t, Mix::GetOnly, 4096, 60, 7))
        .collect();
    let row = |label: &str, value: &dyn Fn(&rmc_bench::AttributedLatency) -> f64| {
        print!("{label:>18}");
        for r in &reports {
            print!("{:>12.3}", value(r));
        }
        println!();
    };
    for stage in PathStage::ALL {
        row(stage.label(), &|r| r.stage_us(stage));
    }
    row("residual", &|r| r.residual_us);
    row("end_to_end", &|r| r.mean_us);
    let mut records = Vec::new();
    for ((name, _), r) in cases.iter().zip(&reports) {
        let mut rec = rmc_bench::json_out::Record::new()
            .str("op", "get")
            .str("transport", *name)
            .str("cluster", ClusterKind::A.label())
            .int("size", 4096)
            .num("mean_us", r.mean_us)
            .num("attributed_mean_us", r.attributed_mean_us())
            .int("ops_attributed", r.ops_attributed)
            .int("inexact_ops", r.inexact_ops)
            .num("residual_us", r.residual_us);
        for stage in PathStage::ALL {
            rec = rec.num(&format!("stage_{}_us", stage.label()), r.stage_us(stage));
        }
        records.push(rec);
    }
    rmc_bench::json_out::write("ext_latency_attribution", &records);
    println!("\n(Stages sum to the end-to-end mean with zero residual — the");
    println!("attribution invariant. OS-bypass shrinks the wire stages; service");
    println!("is the store's own cost and does not move across transports.)");
}
