# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench check shrink-smoke live-smoke dist-smoke serve-smoke serve-soak serve-recover experiments examples clean

all: build

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe -- --json BENCH_RESULTS.json

check:
	dune exec bin/main.exe -- check --algo rwwc -n 4 --max-f 2
	dune exec bin/main.exe -- check --algo rwwc -n 4 --max-f 2 --no-symmetry

# Differential-fuzz smoke: shrink the known broken-variant witness to a
# replayable artifact, then run bounded random schedules + recorded storms
# through the conformance oracle (auto-shrinks on failure).
shrink-smoke:
	dune exec bin/main.exe -- shrink --algo data-decide -n 4 --repro repro-data-decide.json
	dune exec bin/main.exe -- shrink --replay repro-data-decide.json
	dune exec bin/main.exe -- fuzz --runs 40 --repro repro-fuzz.json

# Live-runtime smoke: the deterministic loopback wire, then a real-socket
# fleet with scripted mid-round process kills; both must pass the judge.
live-smoke:
	dune exec bin/main.exe -- live --n 5 --f 2 --transport loopback --dir _live/loopback
	dune exec bin/main.exe -- live --n 4 --f 1 --dir _live/sockets
	dune exec bin/main.exe -- live --n 5 --f 2 --dir _live/acceptance

# Distributed-checker smoke: a coordinator and two forked workers over a
# unix socket, one worker killed mid-sweep by script (the lease re-grants
# and the sweep still finds every class), then a checkpointed n=5 sweep
# whose completed checkpoint resumes without re-executing anything.
dist-smoke:
	dune exec bin/main.exe -- check -a rwwc -n 4 --max-f 2 \
	  --serve unix:/tmp/sync-agreement-dist-smoke.sock --spawn 2 --shards 16 \
	  --kill-one-after 40 --lease-timeout 1
	rm -f /tmp/sync-agreement-dist-smoke.ckpt.json
	dune exec bin/main.exe -- check -a rwwc -n 5 --max-f 3 \
	  --serve unix:/tmp/sync-agreement-dist-smoke.sock --spawn 2 --shards 24 \
	  --checkpoint /tmp/sync-agreement-dist-smoke.ckpt.json --lease-timeout 1
	dune exec bin/main.exe -- check -a rwwc -n 5 --max-f 3 \
	  --serve unix:/tmp/sync-agreement-dist-smoke.sock --shards 24 \
	  --checkpoint /tmp/sync-agreement-dist-smoke.ckpt.json
	rm -f /tmp/sync-agreement-dist-smoke.ckpt.json

# Consensus-as-a-service smoke: a 1000-instance loopback storm that must
# clear the decisions/sec floor, then a real TCP fleet with a scripted
# mid-storm node kill, then a unix fleet; every instance is judged
# against the abstract engine and any failure exits nonzero.
serve-smoke:
	dune exec bin/main.exe -- serve --instances 1000 --min-dps 10000
	dune exec bin/main.exe -- serve --transport tcp --port-base 7930 \
	  --instances 200 --window 32 --round-d 0.15 \
	  --kill-node 1 --kill-after-frame 57
	dune exec bin/main.exe -- serve --transport unix --instances 200

# Sustained-load soak: 20 seconds of windowed storms through a unix
# fleet, reporting time-bucketed latency percentiles and failing on any
# disagreement or a sub-floor decisions/sec rate.
serve-soak:
	dune exec bin/main.exe -- serve --transport unix -n 5 --window 32 \
	  --soak 20 --bucket 5 --min-dps 200

# Crash-recovery contract: a SIGKILLed engine is respawned, replays its
# fsync'd decision WAL, catches up over the mesh, and the judged storm
# stays clean at two kill points; a sub-big_d chaos cut is delay, not
# failure; and a kill-storm soak holds the decisions/sec floor across
# the recovery dips.
serve-recover:
	dune exec bin/main.exe -- serve --transport unix --instances 200 \
	  --respawn --kill-node 1 --kill-after-frame 57
	dune exec bin/main.exe -- serve --transport unix --instances 120 \
	  --respawn --kill-node 1 --kill-after-frame 157
	dune exec bin/main.exe -- serve --transport unix --instances 100 \
	  --chaos-link 1:2 --chaos-cuts 3 --chaos-seed 11
	dune exec bin/main.exe -- serve --transport unix -n 3 --window 32 \
	  --soak 10 --bucket 2 --respawn --kill-every 3 --min-dps 200
	dune exec bin/main.exe -- experiments --id RECOVER

experiments:
	dune exec bin/main.exe -- experiments

examples:
	dune exec examples/quickstart.exe
	dune exec examples/crash_storm.exe
	dune exec examples/model_showdown.exe
	dune exec examples/bridge_async.exe
	dune exec examples/lower_bound_tour.exe
	dune exec examples/snapshot_demo.exe

clean:
	dune clean
