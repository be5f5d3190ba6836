# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check serve-smoke chaos-smoke bench-smoke egraph-smoke lint-smoke bench figures examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# the pre-commit gate: formatting (when ocamlformat is available), the
# full test suite, a quick bench smoke run over the engine comparison
# with its machine-readable trajectory checked, and the end-to-end
# serving smoke
check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt || exit 1; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi
	dune runtest
	$(MAKE) lint-smoke
	$(MAKE) bench-smoke
	$(MAKE) egraph-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke

# quick fig12/fig13 runs that also emit the figure summary JSON
# (BENCH_fig12.json / BENCH_fig13.json, format in the README's
# "Benchmarks" section), then assert the files parse, every engine
# reached the same fixpoint on every model (engines_agree), every
# engine found the same number of matches, and plan ran the matcher
# exactly as often as index (both match behind the root-head
# prefilter). Deliberately no timing assertion: CI cores are not a perf
# lab.
bench-smoke: build
	dune exec bench/main.exe -- fig12 fig13 --quick --json BENCH.json
	@python3 -c "\
	import json, sys; \
	files = ['BENCH_fig12.json', 'BENCH_fig13.json']; \
	datas = [json.load(open(f)) for f in files]; \
	[sys.exit('%s: engines disagree on the rewrite fixpoint' % f) \
	   for f, d in zip(files, datas) if not d['engines_agree']]; \
	[sys.exit('%s: no engine rows' % f) \
	   for f, d in zip(files, datas) if not d['engines']]; \
	[sys.exit('%s: engines disagree on match counts' % f) \
	   for f, d in zip(files, datas) \
	   if len({e['matches'] for e in d['engines']}) != 1]; \
	att = lambda d, n: [e['attempts'] for e in d['engines'] if e['engine'] == n]; \
	[sys.exit('%s: plan attempts %s differ from index %s' % (f, att(d, 'plan'), att(d, 'index'))) \
	   for f, d in zip(files, datas) if att(d, 'plan') != att(d, 'index')]; \
	print('bench-smoke: %s ok (engines_agree, plan attempts = index)' % ', '.join(files))"

# static-analysis gate: lint the shipped pattern sets. The example file
# must come back clean; the full built-in corpus must exit 0 (its one
# known finding — the MulOne/MulZero overlap — is warning-severity) and
# the JSON findings must keep the documented schema (doc/analysis.md).
# A deliberately dead library must be rejected with a nonzero exit.
lint-smoke: build
	./_build/default/bin/pypmc.exe lint examples/patterns.pypm
	./_build/default/bin/pypmc.exe lint --opt full
	@./_build/default/bin/pypmc.exe lint --opt full --json | python3 -c "\
	import json, sys; \
	ds = json.load(sys.stdin); \
	keys = {'severity', 'kind', 'patterns', 'explanation'}; \
	bad = [d for d in ds if not keys <= set(d)]; \
	sys.exit('lint-smoke: missing fields in %r' % bad) if bad else None; \
	sys.exit('lint-smoke: corpus lint must be warnings only') \
	  if any(d['severity'] == 'error' for d in ds) else None; \
	print('lint-smoke: corpus json ok (%d finding(s))' % len(ds))"
	@TMP=$$(mktemp -t lint-smoke-XXXXXX.pypm); \
	printf 'op Relu(x) class "unary_pointwise";\n\npattern Dead(x) {\n  assert x.size < 1;\n  return Relu(x);\n}\n' > $$TMP; \
	if ./_build/default/bin/pypmc.exe lint $$TMP >/dev/null 2>&1; then \
	  echo "lint-smoke: dead library was not rejected"; rm -f $$TMP; exit 1; \
	else \
	  echo "lint-smoke: dead library rejected (nonzero exit) ok"; rm -f $$TMP; \
	fi

# saturation-vs-greedy agreement gate: compile every zoo model with the
# Plan and Egraph engines and assert the egraph engine never degrades and
# is never costlier than Plan on the same model (its contract — the
# saturation post-phase commits only strict improvements). --quick keeps
# the pre-commit gate to the first handful of models; CI runs the full
# sweep.
egraph-smoke: build
	dune exec bench/egraph_smoke.exe -- --quick

# end-to-end serving smoke: background a 4-worker server, drive it with
# 4 concurrent clients, require zero protocol errors and a warm cache,
# then tear the server down. Finishes in seconds.
serve-smoke: build
	@SOCK=/tmp/pypmc-smoke-$$$$.sock; \
	./_build/default/bin/pypmc.exe serve --socket $$SOCK --workers 4 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	./_build/default/bin/pypmc.exe load --socket $$SOCK \
	  --clients 4 --requests 200 --seed 1 --min-hits 1; \
	RC=$$?; \
	kill $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -f $$SOCK; \
	exit $$RC

# self-healing smoke: 500 seeded wire-fault schedules (torn/corrupt/
# stalled/disconnected frames, poison-pill crash drills, pipelined
# bursts) must produce zero property violations; then SIGTERM the server
# (graceful drain — it exits on its own), restart it on the same socket,
# and require a clean warm load against the successor.
chaos-smoke: build
	@SOCK=/tmp/pypmc-chaos-$$$$.sock; \
	./_build/default/bin/pypmc.exe serve --socket $$SOCK --workers 2 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	./_build/default/bin/pypmc.exe chaos --socket $$SOCK \
	  --schedules 500 --seed 42 || { kill $$SRV 2>/dev/null; exit 1; }; \
	kill $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	if [ -e $$SOCK ]; then echo "drained server left its socket behind"; exit 1; fi; \
	./_build/default/bin/pypmc.exe serve --socket $$SOCK --workers 2 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$SOCK ] && break; sleep 0.1; done; \
	./_build/default/bin/pypmc.exe load --socket $$SOCK \
	  --clients 2 --requests 50 --seed 2 --min-hits 1; \
	RC=$$?; \
	kill $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -f $$SOCK; \
	exit $$RC

# regenerate every figure of the paper's evaluation + micro/ablation benches
bench:
	dune exec bench/main.exe

figures:
	dune exec bench/main.exe -- fig10 fig11 fig12 fig13

examples:
	dune exec examples/quickstart.exe
	dune exec examples/gelu_fusion.exe
	dune exec examples/mha_fusion.exe
	dune exec examples/graph_partition.exe
	dune exec examples/surface_patterns.exe
	dune exec examples/machine_trace.exe
	dune exec examples/equality_saturation.exe

doc:
	dune build @doc

clean:
	dune clean
