//! What `--bin fig1`, `--bin fig2` and `--bin all` share about a figure:
//! its two panel sweeps, how each panel and the lines around them print,
//! and the figure binaries' `[scale] [--arch mta|smp|both] [--csv]`
//! arguments.

use archgraph_core::experiment::Series;
use archgraph_core::report::series_csv;

use crate::scale::{scale_or_usage, usage_error, Scale};
use crate::sweep::{exit_if_failed, PanelSweep};

/// Which panels of a figure to run (`--arch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The MTA (left) panel only.
    Mta,
    /// The SMP (right) panel only.
    Smp,
    /// Both panels, MTA first.
    Both,
}

/// One figure of the paper: two panel sweeps and their printers.
pub struct Figure {
    /// Binary name, used in the usage line and the failure summary.
    pub name: &'static str,
    /// Prints the lines that precede the first panel.
    pub header: fn(Scale),
    /// The MTA (left) panel's sweep.
    pub mta_sweep: fn(Scale, bool) -> PanelSweep,
    /// The SMP (right) panel's sweep.
    pub smp_sweep: fn(Scale, bool) -> PanelSweep,
    /// Prints one panel (`"MTA"` or `"SMP"`): its tables and plot.
    pub print_panel: fn(&str, &[Series], Scale),
    /// The closing "Paper shape checks" line.
    pub shape_checks: &'static str,
}

impl Figure {
    /// Print the header, then run the selected panels, MTA first,
    /// printing each as its sweep completes. Returns the sweeps in order.
    pub fn run(&self, scale: Scale, arch: Arch) -> Vec<PanelSweep> {
        (self.header)(scale);
        let panels = [
            ("MTA", self.mta_sweep, arch != Arch::Smp),
            ("SMP", self.smp_sweep, arch != Arch::Mta),
        ];
        let mut sweeps = Vec::new();
        for (title, sweep, selected) in panels {
            if selected {
                eprintln!("running {title} panel ({scale:?})...");
                let sw = sweep(scale, true);
                (self.print_panel)(title, &sw.series, scale);
                sweeps.push(sw);
            }
        }
        sweeps
    }

    /// Print the closing "Paper shape checks" line.
    pub fn print_shape_checks(&self) {
        println!("\n{}", self.shape_checks);
    }

    /// The figure's binary: parse the arguments, run the panels, print
    /// the CSV if asked and the shape checks, then exit 1 if a cell failed.
    pub fn main(&self) {
        // Graceful SIGTERM/SIGINT: finish and flush the in-progress
        // checkpoint cell, then exit at the next cell boundary.
        crate::signals::install_graceful();
        let usage = format!(
            "{} [smoke|default|full] [--arch mta|smp|both] [--csv]",
            self.name
        );
        let args: Vec<String> = std::env::args().skip(1).collect();
        let (scale, arch, csv) = figure_args_or_usage(&args, &usage);
        let sweeps = self.run(scale, arch);
        if csv {
            let series: Vec<Series> = sweeps.iter().flat_map(|s| s.series.clone()).collect();
            println!("\n{}", series_csv(&series));
        }
        self.print_shape_checks();
        let failures: Vec<_> = sweeps.into_iter().flat_map(|s| s.failures).collect();
        exit_if_failed(self.name, &failures);
    }
}

/// Parse `[scale] [--arch mta|smp|both] [--csv]` strictly: anything
/// unrecognized prints the error and `usage` and exits 2.
pub fn figure_args_or_usage(args: &[String], usage: &str) -> (Scale, Arch, bool) {
    let mut rest = Vec::new();
    let mut arch = Arch::Both;
    let mut csv = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => {
                arch = match it.next().map(String::as_str) {
                    Some("mta") => Arch::Mta,
                    Some("smp") => Arch::Smp,
                    Some("both") => Arch::Both,
                    Some(v) => usage_error(&format!("unrecognized --arch value `{v}`"), usage),
                    None => usage_error("--arch needs a value", usage),
                }
            }
            "--csv" => csv = true,
            _ => rest.push(a.clone()),
        }
    }
    (scale_or_usage(&rest, usage), arch, csv)
}
