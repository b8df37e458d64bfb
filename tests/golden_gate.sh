#!/bin/sh
# Golden gates, registered with ctest under the `golden` label: each
# gate regenerates a committed golden under tests/golden/ with the
# commands docs/reproducing.md gives and byte-compares the result.
#
#   golden_gate.sh GATE RUBIK_CLI GOLDEN_DIR
#
# Gates:
#   sweep_baselines  the baseline policies (fixed, static, dynamic,
#                    adrenaline, pegasus) over the five apps, once in
#                    process at --jobs 4 and once through the
#                    orchestrator (subprocess batch children, exit
#                    wake-ups, trace-aligned batches, the fsync'd
#                    ledger), each against sweep_baselines_fast.csv.
set -eu

[ $# -eq 3 ] || { echo "usage: $0 GATE RUBIK_CLI GOLDEN_DIR" >&2; exit 2; }
gate=$1
cli=$2
golden=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
    echo "golden gate $gate: $*" >&2
    exit 1
}

case $gate in
sweep_baselines)
    printf '%s\n' \
        'apps = masstree,moses,shore,specjbb,xapian' \
        'loads = 0.3,0.7' \
        'policies = fixed,static,dynamic,adrenaline,pegasus' \
        'seeds = 42' \
        'requests = 4000' > "$work/baselines.spec"
    "$cli" sweep --spec "$work/baselines.spec" --jobs 4 \
        > "$work/baselines.csv"
    cmp "$golden/sweep_baselines_fast.csv" "$work/baselines.csv" \
        || fail "baseline policies diverged from golden"
    "$cli" sweep --spec "$work/baselines.spec" \
        --out "$work/baselines_orch.csv" --schedule dynamic \
        --backend subprocess --shards 4 --jobs 1
    cmp "$golden/sweep_baselines_fast.csv" "$work/baselines_orch.csv" \
        || fail "orchestrated baselines diverged from golden"
    ;;
*)
    fail "unknown gate"
    ;;
esac
