#!/bin/sh
# Exit-code contract of the nullrel CLI:
#   0 success, 2 bad input (parse/resolve/CSV), 3 storage faults,
#   4 timeout, 5 budget exceeded, 10 constraint violation.
# Usage: cli_exit_codes.sh PATH-TO-NULLREL-CLI
set -u

CLI="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# expect WANT DESCRIPTION CMD...
expect() {
    want="$1"; shift
    desc="$1"; shift
    "$@" >/dev/null 2>&1
    got=$?
    [ "$got" -eq "$want" ] || fail "$desc: expected exit $want, got $got"
}

cat > "$tmp/r.csv" <<EOF
A,B
1,10
2,-
3,30
EOF

printf 'this is not a binary relation\n' > "$tmp/garbage.nrx"

# --- 0: success ------------------------------------------------
expect 0 "plain query" \
    "$CLI" query --rel "R=$tmp/r.csv" 'range of r is R retrieve (r.A)'
expect 0 "query under generous limits" \
    "$CLI" query --timeout 60 --max-tuples 1000000 \
    --rel "R=$tmp/r.csv" 'range of r is R retrieve (r.A)'

# --- 2: bad input ----------------------------------------------
expect 2 "parse error" \
    "$CLI" query --rel "R=$tmp/r.csv" 'range of r is'
expect 2 "unknown relation" \
    "$CLI" query --rel "R=$tmp/r.csv" 'range of x is NOPE retrieve (x.A)'
expect 2 "malformed --rel binding" \
    "$CLI" query --rel "RNOFILE" 'range of r is R retrieve (r.A)'

# a comparison across domains is a type error, reported as bad input
# on every surface that evaluates a qualification (it used to escape
# as an uncaught exception, exit 125)
printf 'A,B\n1,x\n' > "$tmp/typed.csv"
cross='range of r is R retrieve (r.A) where r.A < "x"'
expect 2 "type error in query" \
    "$CLI" query --rel "R=$tmp/typed.csv" "$cross"
expect 2 "type error in query --analyze" \
    "$CLI" query --analyze --rel "R=$tmp/typed.csv" "$cross"
expect 2 "type error in agg" \
    "$CLI" agg count --rel "R=$tmp/typed.csv" "$cross"
expect 2 "type error in dml" \
    "$CLI" dml --dir "$tmp/typeddb" --load "R=$tmp/typed.csv" "$cross"
expect 2 "type error with --trace-file" \
    "$CLI" query --trace-file "$tmp/type_trace.jsonl" \
    --rel "R=$tmp/typed.csv" "$cross"
grep -q '"type":"abort".*"kind":"type"' "$tmp/type_trace.jsonl" \
    || fail "the trace file does not note the type-error abort"

# every query gets the calculus evaluator's answer or error, with or
# without --analyze: R's columns are both int; pushed down, r.A = 5
# would empty R before r.B < "x" raised, and pushed into R, r.B < "x"
# would raise although the product with the empty S compares nothing
printf 'A,B\n1,2\n3,4\n' > "$tmp/ints.csv"
printf 'C,D\n' > "$tmp/empty.csv"
skipped='range of r is R retrieve (r.A) where r.B < "x" and r.A = 5'
reached='range of r is R range of s is S retrieve (r.A) where r.B < "x"'
for analyze in "" --analyze; do
    expect 2 "query $analyze: a comparison a pushed selection skips" \
        "$CLI" query $analyze --rel "R=$tmp/ints.csv" "$skipped"
    expect 0 "query $analyze: a comparison no pair reaches" \
        "$CLI" query $analyze --rel "R=$tmp/ints.csv" \
        --rel "S=$tmp/empty.csv" "$reached"
done
"$CLI" query --analyze --semantics codd --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A) where r.B = 10' 2>/dev/null \
    | grep -q 'MAYBE band' \
    || fail "query --analyze --semantics codd dropped the MAYBE band"

# --- 3: storage faults -----------------------------------------
expect 3 "corrupt binary relation" \
    "$CLI" convert "$tmp/garbage.nrx" "$tmp/out.csv"

# --- 4: timeout ------------------------------------------------
expect 4 "zero deadline" \
    "$CLI" query --timeout 0 --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
expect 4 "zero deadline on an algebra command" \
    "$CLI" join --timeout 0 --on A "$tmp/r.csv" "$tmp/r.csv"

# --- 5: budget exceeded ----------------------------------------
expect 5 "tiny tuple budget" \
    "$CLI" query --max-tuples 1 --rel "R=$tmp/r.csv" \
    'range of r is R range of s is R retrieve (r.A, s.B)'
expect 5 "tiny budget on an algebra command" \
    "$CLI" outerjoin --max-tuples 1 --on A "$tmp/r.csv" "$tmp/r.csv"

# the limits bound the statement, not the system catalog: sys_*
# relations are built only when a range names one (they used to be
# charged to every query, about 2,000 tuples on a small relation)
expect 0 "query over user data pays no system catalog" \
    "$CLI" query --max-tuples 2000 --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
expect 0 "agg over user data pays no system catalog" \
    "$CLI" agg count --max-tuples 2000 --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
expect 0 "a query ranging over sys_relations still sees it" \
    "$CLI" query --rel "R=$tmp/r.csv" \
    'range of s is sys_relations retrieve (s.NAME)'

# dml's limits bound its statements, not the recovery of the
# directory it opens (about one tick per stored row)
awk 'BEGIN { print "A,B"; for (k = 0; k < 2000; k++) print k "," (k % 7) }' \
    > "$tmp/big.csv"
expect 0 "load a 2,000-row relation" \
    "$CLI" dml --dir "$tmp/bigdb" --load "R=$tmp/big.csv"
expect 0 "a small budget covers one append, not the recovery" \
    "$CLI" dml --dir "$tmp/bigdb" --max-tuples 1000 \
    'append to R (A = 5000, B = 1)'
expect 5 "the budget still binds the statements" \
    "$CLI" dml --dir "$tmp/bigdb" --max-tuples 10 \
    'range of v is R range of w is R retrieve (v.A, w.B)'

# an update is charged the tuples it examines: a keyed one its
# candidates, any other qualification the whole relation
awk 'BEGIN { print "K,V"; for (k = 0; k < 2000; k++) print k "," (k % 7) }' \
    > "$tmp/keyed.csv"
expect 0 "load a 2,000-row relation keyed on K" \
    "$CLI" dml --dir "$tmp/keydb" --load "R=$tmp/keyed.csv" --key R=K
expect 0 "a keyed delete is charged its one candidate" \
    "$CLI" dml --dir "$tmp/keydb" --max-tuples 10 \
    'range of v is R delete v where v.K = 7'
expect 5 "a range delete is charged the whole relation" \
    "$CLI" dml --dir "$tmp/keydb" --max-tuples 10 \
    'range of v is R delete v where v.K > 1990'
expect 2 "a keyed delete comparing an int column with a string" \
    "$CLI" dml --dir "$tmp/keydb" \
    'range of v is R delete v where v.K = 999 and v.V = "x"'

# --- metrics survive aborts ------------------------------------
# --metrics-file must produce a well-formed Prometheus dump even when
# the run is killed by the governor (exits 4 and 5), and the dump must
# carry the abort class.
expect 4 "timeout with --metrics-file" \
    "$CLI" query --timeout 0 --metrics-file "$tmp/m_timeout.prom" \
    --rel "R=$tmp/r.csv" 'range of r is R retrieve (r.A)'
[ -s "$tmp/m_timeout.prom" ] || fail "no metrics dump after timeout abort"
grep -q '^# TYPE' "$tmp/m_timeout.prom" \
    || fail "timeout dump is not Prometheus text"
grep -q 'nullrel_aborts_total{class="timeout"} 1' "$tmp/m_timeout.prom" \
    || fail "timeout dump does not count the abort"

expect 5 "budget abort with --metrics-file" \
    "$CLI" query --max-tuples 1 --metrics-file "$tmp/m_budget.prom" \
    --rel "R=$tmp/r.csv" 'range of r is R range of s is R retrieve (r.A, s.B)'
[ -s "$tmp/m_budget.prom" ] || fail "no metrics dump after budget abort"
grep -q '^# TYPE' "$tmp/m_budget.prom" \
    || fail "budget dump is not Prometheus text"
grep -q 'nullrel_aborts_total{class="budget"} 1' "$tmp/m_budget.prom" \
    || fail "budget dump does not count the abort"

# --- aggregate bounds ------------------------------------------
cat > "$tmp/names.csv" <<EOF
ID,NAME
1,ada
2,grace
3,-
EOF

expect 0 "agg count" \
    "$CLI" agg count --rel "R=$tmp/r.csv" 'range of r is R retrieve (r.A)'
expect 0 "agg sum over a null-free column" \
    "$CLI" agg sum --attr r.A --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
# completing a null needs a finite domain; CSV columns are guessed as
# unbounded, so this must be classified bad input, not a crash
expect 2 "agg sum over a nullable unbounded column" \
    "$CLI" agg sum --attr r.B --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
# regression: aggregating a string column used to escape as an
# unclassified exception; it must be reported as bad input (2)
expect 2 "agg sum over a string column" \
    "$CLI" agg sum --attr v.NAME --rel "S=$tmp/names.csv" \
    'range of v is S retrieve (v.ID)'
expect 2 "agg count rejects --attr" \
    "$CLI" agg count --attr r.B --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'
expect 2 "agg sum without --attr" \
    "$CLI" agg sum --rel "R=$tmp/r.csv" 'range of r is R retrieve (r.A)'
expect 2 "agg with malformed --attr" \
    "$CLI" agg sum --attr nodot --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A)'

# --- 10: constraint violations ---------------------------------
cat > "$tmp/t.csv" <<EOF
K,V
1,10
2,20
EOF
cat > "$tmp/fk.csv" <<EOF
F,W
1,5
EOF

mkdir -p "$tmp/restrictdb"
expect 10 "restrict-blocked delete" \
    "$CLI" dml --dir "$tmp/restrictdb" \
    --load "T=$tmp/t.csv" --load "R=$tmp/fk.csv" \
    'constrain fk R (F) to T (K) on delete restrict as fkr' \
    'range of v is T delete v where v.K = 1'

mkdir -p "$tmp/cascadedb"
expect 0 "cascading delete" \
    "$CLI" dml --dir "$tmp/cascadedb" \
    --load "T=$tmp/t.csv" --load "R=$tmp/fk.csv" \
    'constrain fk R (F) to T (K) on delete cascade as fkr' \
    'range of v is T delete v where v.K = 1'
# the cascade's effect must be durable: the referencing row is gone
# on the next process's recovered snapshot
"$CLI" dml --dir "$tmp/cascadedb" \
    'range of v is R retrieve (v.F, v.W)' 2>/dev/null \
    | grep -q '5' && fail "cascade did not remove the referencing row"

mkdir -p "$tmp/uniquedb"
expect 10 "duplicate under a unique constraint" \
    "$CLI" dml --dir "$tmp/uniquedb" --load "T=$tmp/t.csv" \
    'constrain unique T (K) as uq' \
    'append to T (K = 1, V = 99)'
# ni-tolerance: a tuple null on the unique attribute collides with nothing
expect 0 "null key under a unique constraint" \
    "$CLI" dml --dir "$tmp/uniquedb" 'append to T (V = 7)'

# --- a reload supersedes the journal ----------------------------
# A run that exits 10 leaves its committed append in the journal. A
# later --load of the same relation replaces it whole: the journaled
# row must not replay over the reloaded ones, and a clean exit leaves
# the journal empty.
printf 'A,B\n1,10\n2,-\n' > "$tmp/r1.csv"
printf 'A,B\n7,70\n' > "$tmp/r2.csv"
expect 10 "violation after a committed append" \
    "$CLI" dml --dir "$tmp/reloaddb" --load "R=$tmp/r1.csv" \
    'append to R (A = 3, B = 30)' 'constrain unique R (A) as u' \
    'append to R (A = 1, B = 99)'
[ -s "$tmp/reloaddb/wal" ] || fail "the committed append is not journaled"
"$CLI" dml --dir "$tmp/reloaddb" --load "R=$tmp/r2.csv" \
    'range of r is R retrieve (r.A, r.B)' > "$tmp/reload.txt" 2>/dev/null \
    || fail "the reload run failed"
grep -q '70' "$tmp/reload.txt" || fail "the reloaded row is missing"
grep -q '30' "$tmp/reload.txt" && fail "--load replayed a journaled row"
[ -s "$tmp/reloaddb/wal" ] && fail "the journal is not empty after a clean exit"

# --- recovery is reported only when the directory needed repair --
# A clean exit leaves a clean directory: the next run opens it
# silently. A torn journal tail is reported, with its journal note.
"$CLI" dml --dir "$tmp/quietdb" --load "R=$tmp/r.csv" \
    'append to R (A = 5, B = 6)' >/dev/null 2>&1 \
    || fail "seeding the quiet directory failed"
"$CLI" dml --dir "$tmp/quietdb" 'append to R (A = 7, B = 8)' \
    >/dev/null 2> "$tmp/quiet.err" || fail "dml on a clean directory failed"
grep -q 'recovery:' "$tmp/quiet.err" \
    && fail "dml reported recovery on a clean directory"
printf 'garbage' >> "$tmp/quietdb/wal"
"$CLI" dml --dir "$tmp/quietdb" 'append to R (A = 9, B = 10)' \
    >/dev/null 2> "$tmp/torn.err" || fail "dml after a torn journal failed"
grep -q '^recovery: journal: ' "$tmp/torn.err" \
    || fail "dml did not report the torn journal"

# --- statistics-driven planning --------------------------------
expect 0 "query with --analyze" \
    "$CLI" query --analyze --rel "R=$tmp/r.csv" \
    'range of r is R retrieve (r.A) where r.B = 10'

echo "cli exit codes: ok"
