//! `--bin all` is the one driver of the whole evaluation: it runs each
//! sweep once, and its stdout holds the stdout of `fig1`, `fig2` and
//! `table1` verbatim, each as one contiguous block, then the §5 ratios.

use std::process::Command;

fn stdout_of(bin: &str, exe: &str) -> String {
    let out = Command::new(exe)
        .arg("smoke")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} smoke exited {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn all_prints_every_figure_and_table_block_and_the_ratios() {
    let all = stdout_of("all", env!("CARGO_BIN_EXE_all"));
    for (bin, exe) in [
        ("fig1", env!("CARGO_BIN_EXE_fig1")),
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
    ] {
        let block = stdout_of(bin, exe);
        assert!(
            all.contains(&block),
            "`all smoke` must contain `{bin} smoke`'s stdout as one block:\n{block}\n--- all:\n{all}"
        );
    }
    for quantity in [
        "SMP Random / Ordered",
        "MTA Random / Ordered",
        "SMP/MTA ordered",
        "SMP/MTA random",
        "SMP/MTA connected components",
    ] {
        // A measured ratio prints as e.g. `4.34x`; the paper column's
        // `3-4x` and `~10x` do not parse as numbers.
        let measured = |w: &str| {
            w.strip_suffix('x')
                .is_some_and(|r| r.parse::<f64>().is_ok())
        };
        assert!(
            all.lines()
                .any(|l| l.contains(quantity) && l.split_whitespace().any(measured)),
            "`all smoke` must print the ratio row `{quantity}`:\n{all}"
        );
    }
}
