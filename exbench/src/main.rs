//! `exbench --workload <contended|replicas> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with the
//! counts of updates attempted and failed, whether every correctness check
//! passed, and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also prints the per-layer self-time table and
//! writes its spans to `<build dir>/exbench-spans-<workload>-<seed>.tsv`.
//! Exits 1 if a check failed and 2 on bad arguments.

use youtopia_exbench::{build_dir, run, stats, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("exbench: {e}");
            eprintln!(
                "usage: exbench --workload <contended|replicas> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let trace = opts.trace;
    let label = format!("{}-{}", opts.workload, opts.seed);
    let (outcome, meter) = run(opts);
    let rates = &outcome.round_rates;
    if !rates.is_empty() {
        let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().copied().fold(0.0, f64::max);
        println!(
            "rounds: {} at {lo:.1} .. {hi:.1} updates/s (median {:.1})",
            rates.len(),
            stats::median(rates)
        );
    }
    if trace {
        print!("{}", meter.self_time_table());
        let dir = build_dir();
        let path = dir.join(format!("exbench-spans-{label}.tsv"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, meter.spans_tsv()))
        {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), meter.spans().len()),
            Err(e) => eprintln!("exbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json(trace));
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}
