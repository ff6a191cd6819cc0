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
# regression can never hang the pipeline. Includes the E19 gate on
# disabled-instrumentation overhead and the E20 gates on parallel
# parity/speedup and dispatch overhead (exit 1 on violation). Runs on
# a 4-domain pool so the parallel code paths are actually exercised.
bench-smoke:
	NULLREL_DOMAINS=4 timeout 600 $(DUNE) exec bench/main.exe -- --fast

# Observability end to end on a sample workload: run a governed query
# with tracing on, dump the metrics registry, and print it.
metrics-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	$(DUNE) exec bin/nullrel_cli.exe -- query \
	  --timeout 10 --max-tuples 100000 \
	  --metrics-file "$$tmp/metrics.prom" --trace \
	  --rel "PS=$$tmp/ps.csv" \
	  'range of p is PS retrieve (p.S#) where p.P# = "p1"'; \
	echo; echo "--- $$tmp/metrics.prom ---"; cat "$$tmp/metrics.prom"

# Statistics end to end on a sample database: load it into the shell,
# run .analyze, list the stats catalog, and show a plan costed with
# the collected statistics. Exercised by CI at 1 and 4 domains so the
# governed analyze scan runs through both kernel strategies.
analyze-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'S#,P#\ns1,p1\ns2,p1\ns3,p2\ns4,-\n' > "$$tmp/ps.csv"; \
	printf 'S#,CITY\ns1,london\ns2,paris\ns3,-\n' > "$$tmp/s.csv"; \
	{ printf '.load PS %s/ps.csv\n' "$$tmp"; \
	  printf '.load S %s/s.csv\n' "$$tmp"; \
	  printf '.analyze\n.stats-catalog\n'; \
	  printf '.plan range of p is PS range of s is S retrieve (s.CITY) where p.S# = s.S# and p.P# = "p1"\n'; \
	  printf '.quit\n'; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl

# The session layer end to end: two sessions race a write-write
# hotspot on overlapping snapshots — one group batch, a conflict, a
# retry — then a contended load drive over real domains. Exercised by
# CI at 1 and 4 domains so the commit path runs both inline and truly
# concurrent.
session-demo:
	$(DUNE) build bin/nullrel_cli.exe
	$(DUNE) exec bin/nullrel_cli.exe -- sessions --demo
	$(DUNE) exec bin/nullrel_cli.exe -- sessions --sessions 2 --txns 25 --conflict-every 3

# Constraints end to end: two relations under a foreign key, a
# cascading delete chains through both, then a restrict declaration
# blocks the same delete (the CLI must exit 10 on that). Exercised by
# CI at 1 and 4 domains like the other demos.
constraints-demo:
	$(DUNE) build bin/nullrel_cli.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	printf 'K,V\n1,10\n2,20\n' > "$$tmp/t.csv"; \
	printf 'F,W\n1,5\n2,6\n' > "$$tmp/r.csv"; \
	echo "--- cascade: deleting T(K=1) chains into R ---"; \
	$(DUNE) exec bin/nullrel_cli.exe -- dml --dir "$$tmp/cascade" \
	  --load "T=$$tmp/t.csv" --load "R=$$tmp/r.csv" \
	  'constrain fk R (F) to T (K) on delete cascade as fkr' \
	  'range of v is T delete v where v.K = 1' \
	  'range of v is R retrieve (v.F, v.W)' || exit 1; \
	echo "--- restrict: the same delete must be refused (exit 10) ---"; \
	$(DUNE) exec bin/nullrel_cli.exe -- dml --dir "$$tmp/restrict" \
	  --load "T=$$tmp/t.csv" --load "R=$$tmp/r.csv" \
	  'constrain fk R (F) to T (K) on delete restrict as fkr' \
	  'range of v is T delete v where v.K = 1'; \
	status=$$?; \
	if [ $$status -ne 10 ]; then \
	  echo "expected exit 10 from the restricted delete, got $$status"; exit 1; \
	fi; \
	echo "restricted delete refused with exit 10, as declared"

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
# answers the same query under --semantics sql with an UNKNOWN band.
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
	  echo "--semantics sql did not print the UNKNOWN band"; exit 1; }

# Secondary indexes end to end: declare a hash index, watch an
# equi-join get served by probes (the probe-equijoin operator in
# .stats) and .explain analyze measure that plan (no product row),
# append through the index (it advances in place rather than
# rebuilding), then save and reopen the directory — the persisted dump
# must re-attach under its CRC stamp with the appended tuple counted.
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
	{ printf '.open %s/db\n.indexes\n.quit\n' "$$tmp"; } | \
	$(DUNE) exec bin/nullrel_cli.exe -- repl | tee "$$tmp/reopen.txt"; \
	grep -q 'DEPT hash(DDEPT) -- 4 tuples indexed' "$$tmp/reopen.txt" || { \
	  echo "the persisted index did not survive the reopen"; exit 1; }; \
	! grep -q 'problems found' "$$tmp/reopen.txt" || { \
	  echo "reopen reported problems"; exit 1; }; \
	echo "index demo ok: probes served and explained the join, the dump re-attached"

# No-op when ocamlformat is not installed; otherwise rewrites in place.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping"; \
	fi

clean:
	$(DUNE) clean
