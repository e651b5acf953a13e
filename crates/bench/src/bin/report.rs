//! Regenerates every table and figure of the FlexSP paper.
//!
//! ```text
//! report all            # everything (a few seconds in release)
//! report quick          # reduced grids
//! report table1 figure2 # a subset
//! ```
//!
//! An unknown experiment name exits with status 2 before anything runs.

use std::time::Instant;

use flexsp_bench::{
    appendix_e, case_study, figure2, figure4, figure6, figure7, figure8, figure9, table1, table4,
    table5,
};

const ALL: &[&str] = &[
    "table1",
    "figure2",
    "table5",
    "figure4",
    "case_study",
    "figure6",
    "figure7",
    "table4",
    "figure8",
    "figure9",
    "appendix_e",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &str| ALL.contains(&a) || a == "all" || a == "quick";
    if let Some(other) = args.iter().find(|a| !known(a)) {
        eprintln!("unknown experiment '{other}' (known: {ALL:?})");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "quick");
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all" || a == "quick")
    {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for exp in selected {
        let start = Instant::now();
        match exp {
            "table1" => {
                let cfg = table1::Config::default();
                println!("{}", table1::render(&cfg, &table1::run(&cfg)));
            }
            "figure2" => {
                let cfg = figure2::Config::default();
                println!("{}", figure2::render(&figure2::run(&cfg)));
            }
            "table5" => println!("{}", table5::render(&table5::run(384 << 10))),
            "figure4" => {
                let cfg = if quick {
                    figure4::Config::quick()
                } else {
                    figure4::Config::default()
                };
                println!("{}", figure4::render(&figure4::run(&cfg)));
            }
            "case_study" => {
                let mut cfg = case_study::Config::default();
                if quick {
                    cfg.batch_size = 192;
                }
                println!("{}", case_study::render(&case_study::run(&cfg)));
            }
            "figure6" => {
                let cfg = figure6::Config::default();
                let (gpu, ctx) = figure6::run(&cfg);
                println!("{}", figure6::render(&gpu, &ctx));
            }
            "figure7" => {
                let cfg = figure7::Config::default();
                println!("{}", figure7::render(&figure7::run(&cfg)));
            }
            "table4" => {
                let cfg = table4::Config::default();
                println!("{}", table4::render(&table4::run(&cfg)));
            }
            "figure8" => {
                let mut cfg = figure8::Config::default();
                if quick {
                    cfg.node_counts = vec![8, 16, 32];
                }
                println!("{}", figure8::render(&figure8::run(&cfg)));
            }
            "figure9" => {
                let cfg = figure9::Config::default();
                println!("{}", figure9::render(&figure9::run(&cfg)));
            }
            "appendix_e" => {
                let cfg = appendix_e::Config::default();
                println!("{}", appendix_e::render(&cfg, &appendix_e::run(&cfg)));
            }
            other => unreachable!("'{other}' was checked against ALL"),
        }
        eprintln!("[{exp} done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
}
