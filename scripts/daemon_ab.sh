#!/usr/bin/env bash
# Same-host interleaved A/B of archgraphd connection latency.
#
# Usage:  scripts/daemon_ab.sh A_DIR B_DIR [PAIRS] [SECONDS] [SEED]
#
# A_DIR and B_DIR are the `release` directories of two builds, each
# holding `archgraphd`, `archgraph-client` and `perfbench`. Build a
# checkout into TARGET with
#
#   CARGO_TARGET_DIR=TARGET cargo build --release --offline \
#       --manifest-path perfbench/Cargo.toml
#   CARGO_TARGET_DIR=TARGET cargo build --release --offline -p archgraphd --bins
#
# Each of PAIRS pairs (default 10) runs both sides, alternating which
# goes first, and records per side:
#
#   setup_s ping_ms exit_ms wall_s req_per_s sim_mips peak_rss_mb
#
# - setup_s, wall_s, req_per_s, sim_mips, peak_rss_mb: the `daemon-mix`
#   workload, SECONDS per run (default 25), seed SEED (default 1).
# - ping_ms: one `archgraph-client ping` against a freshly started
#   daemon, client start to client exit.
# - exit_ms: from the start of `archgraph-client shutdown` to the
#   daemon's exit.
#
# The per-run rows go to stdout, then each column's median and
# quartiles per side, and in how many pairs B was better (lower, except
# for req_per_s and sim_mips). perfbench writes its scratch files under
# ./perfbench/out.

set -euo pipefail
a_dir=$1 b_dir=$2 pairs=${3:-10} seconds=${4:-25} seed=${5:-1}
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

now_ns() { date +%s%N; }
ms() { awk -v d=$(($2 - $1)) 'BEGIN { printf "%.3f", d / 1e6 }'; }

# One side's row: daemon-mix metrics, then a one-shot ping and a timed
# shutdown against a fresh daemon.
measure() {
    local dir=$1 tag=$2 out metric row sock pid t0 t1 t2
    out="$("$dir/perfbench" --workload daemon-mix --seed "$seed" --seconds "$seconds" \
        --trace 0 --daemon "$dir/archgraphd" | tail -n 1)"
    row=()
    for metric in setup_s wall_s req_per_s sim_mips peak_rss_mb; do
        row+=("$(sed -n "s/.*\"$metric\":{\"value\":\([0-9.e+-]*\).*/\1/p" <<<"$out")")
    done
    sock="$work/$tag.sock"
    "$dir/archgraphd" --socket "$sock" --jobs 1 --cache-dir off 2>/dev/null &
    pid=$!
    while [ ! -S "$sock" ]; do sleep 0.01; done
    t0=$(now_ns)
    "$dir/archgraph-client" --socket "$sock" ping >/dev/null
    t1=$(now_ns)
    "$dir/archgraph-client" --socket "$sock" shutdown >/dev/null
    wait "$pid"
    t2=$(now_ns)
    echo "$tag ${row[0]} $(ms "$t0" "$t1") $(ms "$t1" "$t2") ${row[*]:1}"
}

echo "side setup_s ping_ms exit_ms wall_s req_per_s sim_mips peak_rss_mb"
for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then
        measure "$a_dir" A; measure "$b_dir" B
    else
        measure "$b_dir" B; measure "$a_dir" A
    fi
done | tee "$work/rows"

awk '
    function q(arr, n, f,   i) { i = 1 + f * (n - 1); return arr[int(i)] + (i - int(i)) * (arr[int(i) + 1] - arr[int(i)]) }
    { for (c = 2; c <= NF; c++) { v[$1, c, ++n[$1, c]] = $c + 0 } }
    $1 == "A" { for (c = 2; c <= NF; c++) a[c, ++na[c]] = $c + 0 }
    $1 == "B" { for (c = 2; c <= NF; c++) b[c, ++nb[c]] = $c + 0 }
    END {
        split("setup_s ping_ms exit_ms wall_s req_per_s sim_mips peak_rss_mb", name, " ")
        printf "%-12s %28s %28s %8s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
        for (c = 2; c <= 8; c++) {
            line = sprintf("%-12s", name[c - 1])
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "A" : "B"; m = n[side, c]
                for (i = 1; i <= m; i++) x[i] = v[side, c, i]
                for (i = 2; i <= m; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
                line = line sprintf(" %10.4g [%6.4g, %6.4g]", q(x, m, 0.5), q(x, m, 0.25), q(x, m, 0.75))
            }
            higher = name[c - 1] == "req_per_s" || name[c - 1] == "sim_mips"
            wins = 0
            for (i = 1; i <= na[c]; i++) wins += higher ? b[c, i] > a[c, i] : b[c, i] < a[c, i]
            print line sprintf(" %5d/%d", wins, na[c])
        }
    }' "$work/rows"
