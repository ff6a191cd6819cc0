# Convenience wrapper around dune. `make check` is the one-stop gate:
# full build plus the whole test suite (unit, property, durability
# matrix, bench golden files).

DUNE ?= dune

.PHONY: all check test bench bench-smoke metrics-demo analyze-demo session-demo constraints-demo monitor-demo semantics-demo index-demo fmt clean

all:
	$(DUNE) build @all

check: all
	$(DUNE) runtest

test:
	$(DUNE) runtest

bench:
	$(DUNE) exec bench/main.exe -- --fast

# CI-sized bench run: short timing quotas, hard wall-clock cap so a
# regression can never hang the pipeline. Every gate of E19-E26 runs
# (overhead A/Bs, growth ratios, crash drills, parity); the bench lists
# the gates that failed at the end and exits 1 if any did. Runs on
# a 4-domain pool so the parallel code paths are actually exercised,
# unless NULLREL_DOMAINS names another size (CI also runs it at 1, so
# the gates see the sequential kernel paths too).
bench-smoke:
	NULLREL_DOMAINS=$${NULLREL_DOMAINS:-4} timeout 600 $(DUNE) exec bench/main.exe -- --fast

# Observability end to end on a sample workload: run a governed query
# with tracing on, dump the metrics registry, and print it. The query
# runs through the planner, so its trace shows plan operators and no
# calculus-evaluator (quel.query) span.
metrics-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	$(DUNE) exec bin/nullrel_cli.exe -- query \
	  --timeout 10 --max-tuples 100000 \
	  --metrics-file "$$tmp/metrics.prom" --trace \
	  --rel "PS=$$tmp/ps.csv" \
	  'range of p is PS retrieve (p.S#) where p.P# = "p1"' \
	  2> "$$tmp/trace.txt"; \
	cat "$$tmp/trace.txt"; \
	echo; echo "--- $$tmp/metrics.prom ---"; cat "$$tmp/metrics.prom"; \
	grep -Eq '^trace: *select ' "$$tmp/trace.txt" \
	  && grep -Eq '^trace: *project ' "$$tmp/trace.txt" || { \
	  echo "query --trace printed no plan-operator span"; exit 1; }; \
	! grep -q 'quel\.query' "$$tmp/trace.txt" || { \
	  echo "query answered through the calculus evaluator, not a plan"; exit 1; }

# Statistics end to end on a sample database: load it into the shell,
# run .analyze, list the stats catalog, show a plan costed with the
# collected statistics, then measure it with .explain analyze: no index
# is declared, and still no product may run (the join hashes one
# factor per query). Exercised by CI at 1 and 4 domains; the relations
# have 3 and 4 rows, below the kernel's 512-row fan-out cutover, so
# both runs fold sequentially (test_stats "pool-size parity" covers
# the parallel fold).
analyze-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	printf 'S#,CITY\ns1,london\ns2,paris\ns3,-\n' > "$$tmp/s.csv"; \
	{ printf '.load PS %s/ps.csv\n' "$$tmp"; \
	  printf '.load S %s/s.csv\n' "$$tmp"; \
	  printf '.analyze\n.stats-catalog\n'; \
	  printf '.plan range of p is PS range of s is S retrieve (s.CITY) where p.S# = s.S# and p.P# = "p1"\n'; \
	  printf '.explain analyze range of p is PS range of s is S retrieve (s.CITY) where p.S# = s.S# and p.P# = "p1"\n'; \
	  printf '.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/out.txt"; \
	grep -q 'est/act' "$$tmp/out.txt" || { \
	  echo "explain analyze printed no plan"; exit 1; }; \
	! grep -Eq '^(> )? *product +[0-9]' "$$tmp/out.txt" || { \
	  echo "explain analyze measured a product: the join materialized it"; exit 1; }

# The session layer end to end: two sessions race a write-write
# hotspot on overlapping snapshots — one group batch, a conflict, a
# retry — then a contended load drive over real domains into a kept
# directory. The shell opens it twice: a shut-down engine leaves its
# journal tail, which replays, so neither open may report a problem,
# and both must count the events the drive committed. Garbage appended
# to the journal must then be reported, fsck must repair it, and the
# next open is clean again. Exercised by CI at 1 and 4 domains so the
# commit path runs both inline and truly concurrent.
session-demo:
	$(DUNE) build bin/nullrel_cli.exe
	$(DUNE) exec bin/nullrel_cli.exe -- sessions --demo
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(DUNE) exec bin/nullrel_cli.exe -- sessions --dir "$$tmp/db" \
	  --sessions 2 --txns 25 --conflict-every 3 | tee "$$tmp/drive.txt" || exit 1; \
	events=$$(sed -n 's/.* events \([0-9][0-9]*\)$$/\1/p' "$$tmp/drive.txt"); \
	[ -n "$$events" ] || { echo "the drive printed no events count"; exit 1; }; \
	open_db() { \
	  printf '.open %s/db\n.agg count range of e is EVENTS retrieve (e.SID, e.SEQ)\n.quit\n' "$$tmp" | \
	  $(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/$$1.txt"; \
	  grep -q "bounds: $$events \.\. $$events" "$$tmp/$$1.txt" || { \
	    echo "$$1: EVENTS does not hold the $$events events the drive committed"; exit 1; }; \
	}; \
	for n in 1 2; do \
	  open_db "open$$n" || exit 1; \
	  ! grep -q 'problems found' "$$tmp/open$$n.txt" || { \
	    echo "open $$n reported a problem in a clean directory"; exit 1; }; \
	done; \
	printf 'garbage tail bytes' >> "$$tmp/db/wal"; \
	open_db torn || exit 1; \
	grep -q 'problems found' "$$tmp/torn.txt" || { \
	  echo "the torn journal tail went unreported"; exit 1; }; \
	$(DUNE) exec bin/nullrel_cli.exe -- fsck "$$tmp/db" || { \
	  echo "fsck could not repair the torn tail"; exit 1; }; \
	open_db repaired || exit 1; \
	! grep -q 'problems found' "$$tmp/repaired.txt" || { \
	  echo "the repaired directory still reports a problem"; exit 1; }; \
	echo "session demo ok: the kept directory reopens clean, and damage is reported and repaired"

# Constraints end to end: two relations under a foreign key, a
# cascading delete chains through both, then the same cascade through
# the shell with a hash index on R (F) must leave the same R rows (the
# delete action probes the index instead of scanning R), then a
# restrict declaration blocks the same delete (the CLI must exit 10 on
# that), and last a restrict left unverified by a wholesale reload of R
# must still let through the delete of a key nothing references.
# Exercised by CI at 1 and 4 domains like the other demos.
constraints-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'K,V\n1,10\n2,20\n' > "$$tmp/t.csv"; \
	printf 'F,W\n1,5\n2,6\n' > "$$tmp/r.csv"; \
	rows() { grep -E '^(> )?[0-9]+ +[0-9]+ *$$' "$$1" | sed 's/^> //'; }; \
	echo "--- cascade: deleting T(K=1) chains into R ---"; \
	$(DUNE) exec bin/nullrel_cli.exe -- dml --dir "$$tmp/cascade" \
	  --load "T=$$tmp/t.csv" --load "R=$$tmp/r.csv" \
	  'constrain fk R (F) to T (K) on delete cascade as fkr' \
	  'range of v is T delete v where v.K = 1' \
	  'range of v is R retrieve (v.F, v.W)' > "$$tmp/scan.txt" || exit 1; \
	cat "$$tmp/scan.txt"; \
	echo "--- the same cascade with R (F) indexed: the delete probes R ---"; \
	{ printf '.load T %s/t.csv\n.load R %s/r.csv\n' "$$tmp" "$$tmp"; \
	  printf '.index R hash F\n'; \
	  printf 'constrain fk R (F) to T (K) on delete cascade as fkr\n'; \
	  printf 'range of v is T delete v where v.K = 1\n'; \
	  printf 'range of v is R retrieve (v.F, v.W)\n.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/probe.txt"; \
	[ -n "$$(rows "$$tmp/scan.txt")" ] && \
	[ "$$(rows "$$tmp/scan.txt")" = "$$(rows "$$tmp/probe.txt")" ] || { \
	  echo "the indexed cascade left other R rows than the scan"; exit 1; }; \
	echo "--- restrict: the same delete must be refused (exit 10) ---"; \
	$(DUNE) exec bin/nullrel_cli.exe -- dml --dir "$$tmp/restrict" \
	  --load "T=$$tmp/t.csv" --load "R=$$tmp/r.csv" \
	  'constrain fk R (F) to T (K) on delete restrict as fkr' \
	  'range of v is T delete v where v.K = 1'; \
	status=$$?; \
	if [ $$status -ne 10 ]; then \
	  echo "expected exit 10 from the restricted delete, got $$status"; exit 1; \
	fi; \
	echo "restricted delete refused with exit 10, as declared"; \
	echo "--- unverified restrict: deleting an unreferenced key succeeds ---"; \
	printf 'F,W\n2,6\n99,7\n' > "$$tmp/r2.csv"; \
	{ printf '.load T %s/t.csv\n.load R %s/r.csv\n' "$$tmp" "$$tmp"; \
	  printf 'constrain fk R (F) to T (K) on delete restrict as fkr\n'; \
	  printf '.load R %s/r2.csv\n' "$$tmp"; \
	  printf 'range of v is T delete v where v.K = 1\n.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/unverified.txt"; \
	grep -q '1 tuple deleted' "$$tmp/unverified.txt" || { \
	  echo "the delete of an unreferenced key was refused"; exit 1; }; \
	echo "constraints demo ok: probe and scan agree, restrict acts on broken references only"

# The system catalog end to end: turn the flight recorder on, run a
# session workload and a governed join, render the .monitor top view,
# then answer the observability questions as plain Quel over sys_* —
# stale stats from sys_relations, p99 commit latency from
# sys_metrics_history, and a join of sys_sessions against the history
# ring. Greps assert the stale verdict and the p99 series actually
# appeared. Exercised by CI at 1 and 4 domains.
monitor-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	{ printf '.monitor on\n'; \
	  printf '.load PS %s/ps.csv\n' "$$tmp"; \
	  printf '.analyze PS\n'; \
	  printf 'append to PS (S# = "s5", P# = "p2")\n'; \
	  printf '.session %s/demo\n' "$$tmp"; \
	  printf 'range of p is PS range of q is PS retrieve (p.S#, q.S#) where p.P# = q.P#\n'; \
	  printf '.monitor 4\n'; \
	  printf 'range of r is sys_relations retrieve (r.NAME, r.STATS) where r.STATS = "stale" or r.UNVERIFIED > 0\n'; \
	  printf 'range of h is sys_metrics_history retrieve (h.SEQ, h.VALUE) where h.NAME = "nullrel_session_commit_us_p99"\n'; \
	  printf 'range of s is sys_sessions range of h is sys_metrics_history retrieve (s.SID, s.STATE, h.NAME, h.VALUE) where h.NAME = "nullrel_session_commits_total"\n'; \
	  printf '.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/out.txt"; \
	grep -q 'commit_p99_us' "$$tmp/out.txt" || { echo "monitor view missing its p99 column"; exit 1; }; \
	grep -q 'stale' "$$tmp/out.txt" || { echo "sys_relations query missed the stale verdict"; exit 1; }

# The semantics dialects end to end: the differential harness checks
# the containment lattice on generated queries (exit 1 on any oracle
# failure), the shell switches dialects mid-session and must print a
# MAYBE band plus the SEMANTICS column of sys_sessions, and the CLI
# answers the same query under --semantics sql with an UNKNOWN band and,
# statistics collected first, under --semantics codd with a MAYBE band.
# Exercised by CI at 1 and 4 domains like the other demos.
semantics-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(DUNE) exec bin/nullrel_cli.exe -- semantics --queries 300 \
	  | tee "$$tmp/diff.txt"; \
	grep -q 'containment lattice: ok' "$$tmp/diff.txt" || { \
	  echo "differential harness failed"; exit 1; }; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	{ printf '.load PS %s/ps.csv\n' "$$tmp"; \
	  printf '.semantics\n.semantics codd\n'; \
	  printf 'range of p is PS retrieve (p.S#) where p.P# = "p1"\n'; \
	  printf '.semantics certain\n'; \
	  printf 'range of p is PS retrieve (p.S#, p.P#)\n'; \
	  printf 'range of s is sys_sessions retrieve (s.SID, s.SEMANTICS)\n'; \
	  printf '.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/shell.txt"; \
	grep -q 'MAYBE band' "$$tmp/shell.txt" || { \
	  echo "shell did not print the MAYBE band under codd"; exit 1; }; \
	grep -q 'SEMANTICS' "$$tmp/shell.txt" || { \
	  echo "sys_sessions did not report the SEMANTICS column"; exit 1; }; \
	grep -q 'certain' "$$tmp/shell.txt" || { \
	  echo "the certain dialect never round-tripped"; exit 1; }; \
	$(DUNE) exec bin/nullrel_cli.exe -- query --semantics sql \
	  --rel "PS=$$tmp/ps.csv" \
	  'range of p is PS retrieve (p.S#) where p.P# = "p1"' \
	  | tee "$$tmp/cli.txt"; \
	grep -q 'UNKNOWN band' "$$tmp/cli.txt" || { \
	  echo "--semantics sql did not print the UNKNOWN band"; exit 1; }; \
	$(DUNE) exec bin/nullrel_cli.exe -- query --analyze --semantics codd \
	  --rel "PS=$$tmp/ps.csv" \
	  'range of p is PS retrieve (p.S#) where p.P# = "p1"' \
	  | tee "$$tmp/cli_analyze.txt"; \
	grep -q 'MAYBE band' "$$tmp/cli_analyze.txt" || { \
	  echo "query --analyze --semantics codd dropped the MAYBE band"; exit 1; }

# Secondary indexes end to end: declare a hash index, watch an
# equi-join get served by probes (the probe-equijoin operator in
# .stats) and .explain analyze measure that plan (no product row),
# append (the relation's subsumption index, which serves the probes,
# advances in place), then save and reopen the directory — the
# declaration must come back with the appended tuple counted, and the
# same join in the reopened session must be served by probes again,
# with nothing but the declaration persisted.
# Exercised by CI at 1 and 4 domains like the other demos.
index-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'ENAME,EDEPT\nanne,toys\nbert,toys\ncarl,candy\ndora,-\nerik,candy\nfred,toys\ngina,books\n' > "$$tmp/emp.csv"; \
	printf 'DDEPT,LOC\ntoys,london\ncandy,paris\nbooks,oslo\n' > "$$tmp/dept.csv"; \
	{ printf '.load EMP %s/emp.csv\n' "$$tmp"; \
	  printf '.load DEPT %s/dept.csv\n' "$$tmp"; \
	  printf '.index DEPT hash DDEPT\n.indexes\n'; \
	  printf '.trace on\n'; \
	  printf 'range of e is EMP range of d is DEPT retrieve (e.ENAME, d.LOC) where e.EDEPT = d.DDEPT\n'; \
	  printf '.stats\n'; \
	  printf '.explain analyze range of e is EMP range of d is DEPT retrieve (e.ENAME, d.LOC) where e.EDEPT = d.DDEPT\n'; \
	  printf 'append to DEPT (DDEPT = "it", LOC = "zurich")\n'; \
	  printf '.indexes\n'; \
	  printf '.save %s/db\n' "$$tmp"; \
	  printf '.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/out.txt"; \
	grep -q 'probe-equijoin' "$$tmp/out.txt" || { \
	  echo "the equi-join was not served by index probes"; exit 1; }; \
	grep -q 'est/act' "$$tmp/out.txt" || { \
	  echo "explain analyze printed no plan"; exit 1; }; \
	! grep -Eq '^(> )? *product +[0-9]' "$$tmp/out.txt" || { \
	  echo "explain analyze measured a product, not the probe-served join"; exit 1; }; \
	grep -q '4 tuples indexed' "$$tmp/out.txt" || { \
	  echo "the append did not advance the declared index"; exit 1; }; \
	{ printf '.open %s/db\n.indexes\n' "$$tmp"; \
	  printf '.trace on\n'; \
	  printf 'range of e is EMP range of d is DEPT retrieve (e.ENAME, d.LOC) where e.EDEPT = d.DDEPT\n'; \
	  printf '.stats\n.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/reopen.txt"; \
	grep -q 'DEPT hash(DDEPT) -- 4 tuples indexed' "$$tmp/reopen.txt" || { \
	  echo "the persisted index did not survive the reopen"; exit 1; }; \
	! grep -q 'problems found' "$$tmp/reopen.txt" || { \
	  echo "reopen reported problems"; exit 1; }; \
	grep -q 'probe-equijoin' "$$tmp/reopen.txt" || { \
	  echo "the reopened declaration did not serve the join's probes"; exit 1; }; \
	echo "index demo ok: probes served and explained the join, and served it again after the reopen"

# No-op when ocamlformat is not installed; otherwise rewrites in place.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping"; \
	fi

clean:
	$(DUNE) clean
