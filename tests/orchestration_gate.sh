#!/bin/sh
# Orchestration robustness gate, registered with ctest as
# `orchestration_gate` (label `gate`) on every compiler:
#
#   orchestration_gate.sh RUBIK_CLI
#
# On a 24-cell grid with two seeds and auto latency bounds, against
# the in-process CSV of the same grid:
#   1. an injected crash at cells 2, 9 and 17, and a true SIGKILL of
#      the coordinator once cells are ledgered, each on the local and
#      the subprocess backend, must --resume to the exact bytes and
#      never publish a CSV; the SIGKILLed coordinator's batch children
#      must be gone within 5 s;
#   2. a hung first batch, at the default (guided) batch sizes, is
#      stolen after its lease and the CSV stays byte-identical;
#   3. with no retry budget, a hung batch (killed at its lease) and a
#      child that truncates its CSV and exits 0 fail the sweep loudly,
#      naming the cells, and publish no CSV.
# tests/orchestration_test.cc covers the rest on a smaller grid: the
# crash with no retries, both dispatch routes to stdout, and a hung
# batch stolen at explicit batch sizes.
set -eu

[ $# -eq 1 ] || {
    echo "usage: $0 RUBIK_CLI" >&2
    exit 2
}
cli=$1
work=$(mktemp -d)
# The coordinator's scratch directories live under $work too, so the
# ones a SIGKILLed coordinator leaves behind go with it.
TMPDIR=$work
export TMPDIR
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
    echo "orchestration gate: $*" >&2
    exit 1
}

printf '%s\n' \
    'apps = masstree,xapian' \
    'loads = 0.3,0.5' \
    'policies = rubik,static,fixed' \
    'seeds = 42,43' \
    'requests = 2000' > grid.spec
"$cli" sweep --spec grid.spec > full.csv

resume_identical() {
    "$cli" sweep --spec grid.spec "$@" --out orch.csv --resume \
        2> resume_err.txt || {
        cat resume_err.txt >&2
        fail "resume failed ($*)"
    }
    cmp full.csv orch.csv || fail "resume diverged from a fresh run ($*)"
}

for backend in local subprocess; do
    if [ "$backend" = local ]; then
        set --
    else
        set -- --backend subprocess --shards 3
    fi
    for k in 2 9 17; do
        rm -f orch.csv orch.csv.ledger
        if "$cli" sweep --spec grid.spec "$@" --retries 0 --out orch.csv \
            --fault crash,cell=$k 2> crash_err.txt; then
            fail "injected crash at cell $k did not fail ($backend)"
        fi
        grep -q "crash at cell $k" crash_err.txt || {
            cat crash_err.txt >&2
            fail "crash error does not name cell $k ($backend)"
        }
        [ ! -e orch.csv ] || fail "crashed sweep published a CSV ($backend)"
        resume_identical "$@"
    done

    # A true SIGKILL of the coordinator once cells are ledgered. Its
    # batch children (one of them hung) must die with it; it leads a
    # session of its own, so any that do not are found, and killed
    # afterwards.
    rm -f orch.csv orch.csv.ledger
    setsid "$cli" sweep --spec grid.spec "$@" --out orch.csv \
        --fault hang,cell=12 2> /dev/null &
    pid=$!
    i=0
    until [ -f orch.csv.ledger ] &&
        [ "$(wc -l < orch.csv.ledger)" -ge 3 ]; do
        i=$((i + 1))
        [ "$i" -le 1200 ] || {
            pkill -KILL -s "$pid" || true
            fail "no cells were ledgered within 120 s ($backend)"
        }
        sleep 0.1
    done
    kill -KILL "$pid"
    wait "$pid" 2> /dev/null || true
    i=0
    while pgrep -s "$pid" > /dev/null; do
        i=$((i + 1))
        [ "$i" -le 50 ] || {
            pkill -KILL -s "$pid" || true
            fail "batch children outlived the SIGKILLed coordinator" \
                "by 5 s ($backend)"
        }
        sleep 0.1
    done
    pkill -KILL -s "$pid" || true
    [ ! -e orch.csv ] || fail "SIGKILLed sweep published a CSV ($backend)"
    resume_identical "$@"
done

# One hung batch, at the default batch sizes: stolen after the
# lease, byte-identical.
timeout 300 "$cli" sweep --spec grid.spec --backend subprocess \
    --shards 3 --lease-timeout 2 --out steal.csv --fault hang,cell=0 \
    2> steal_err.txt || {
    cat steal_err.txt >&2
    fail "hung batch was not stolen in time"
}
cmp full.csv steal.csv || fail "stolen cells diverged from a fresh run"
grep -q 'hang at cell 0' steal_err.txt || fail "the hang never fired"

# No retry budget: each fault fails the sweep loudly, naming the
# cells, and never publishes a truncated CSV.
for fault in hang,cell=5,ms=600000 corrupt-csv-tail; do
    rm -f smoke.csv smoke.csv.ledger
    if timeout 300 "$cli" sweep --spec grid.spec --backend subprocess \
        --shards 2 --retries 0 --lease-timeout 1 --out smoke.csv \
        --fault "$fault" 2> smoke_err.txt; then
        fail "fault $fault did not fail the sweep"
    fi
    grep -Eq 'cells [0-9]+-[0-9]+' smoke_err.txt || {
        cat smoke_err.txt >&2
        fail "fault $fault error names no cells"
    }
    [ ! -e smoke.csv ] || fail "fault $fault published a CSV"
done
