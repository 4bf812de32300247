//! `fupermod_experiment` — regenerate one of the paper's figures or
//! experiments: a row of `fupermod_bench::experiments::ALL`.
//!
//! ```text
//! Usage: fupermod_experiment NAME [--quick] [--trace PATH | --trace-dir DIR]
//!                                 [flags of the experiment]
//!        fupermod_experiment list
//!   NAME         the experiment; its CSV goes to stdout
//!   --trace-dir  write DIR/NAME.trace.jsonl, creating DIR if needed
//!                (FUPERMOD_TRACE_DIR in the environment acts the same)
//!   list         print the table: name, paper section, and whether the
//!                run is traced, untraced or traced but host-timed
//! ```

use fupermod::cli;
use fupermod_bench::experiments::{Experiment, ALL};

fn main() {
    let args = cli::Args::parse();
    let [name] = args.positional() else {
        usage();
    };
    if name == "list" {
        for e in ALL {
            let kind = match (e.traced, e.host_timed) {
                (false, _) => "untraced",
                (true, false) => "traced",
                (true, true) => "traced host-timed",
            };
            println!("{}\t{}\t{kind}", e.name, e.section);
        }
        return;
    }
    let Some(Experiment { traced, run, .. }) = ALL.iter().find(|e| e.name == name) else {
        usage();
    };
    if *traced {
        let trace = cli::open_trace_sink(&args, name, None);
        run(&args, &trace);
        cli::finish_trace(trace.as_ref());
    } else {
        run(&args, &None);
    }
}

fn usage() -> ! {
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    cli::exit_usage(format_args!(
        "usage: fupermod_experiment NAME [flags] | list\n\
         NAME is a row of fupermod_bench::experiments::ALL: {}",
        names.join(", ")
    ))
}
