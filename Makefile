GO ?= go

# flake: how often the two known-flaky tests are repeated.
FLAKE_COUNT ?= 50

# bench-pair: the reference commit, the workload, and how many pairs.
REF ?= HEAD
W ?= w-sat
N ?= 10

.PHONY: check vet staticcheck logcheck build test race soak doctor flake loc bench-smoke bench-pair trace-check

# check is the full local gate: static checks, build, the race-enabled
# test suite, and a one-iteration smoke run of the signature fast-path
# benchmarks (catches bit-rot in the bench harness without the cost of a
# real measurement).
check: vet staticcheck logcheck build test bench-smoke

vet:
	$(GO) vet ./...

# staticcheck runs when the tool is on PATH and is skipped (without
# failing the gate) when it is not, so check works on a bare toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# logcheck gates ad-hoc stdlib logging out of the library: components log
# through log/slog (obs.NopLogger by default); log.Print* belongs only in
# main packages under cmd/.
logcheck:
	@if grep -rnE '\blog\.Print(f|ln)?\(' internal/ --include='*.go'; then \
		echo "logcheck: use log/slog (see internal/obs/logging.go), not stdlib log.Print*"; \
		exit 1; \
	else \
		echo "logcheck: ok"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race -shuffle=on ./...

# race re-runs just the concurrency regression tests (transport send/close
# races, queue semantics, registry snapshot consistency), the replica
# engine's tests (single-goroutine by contract: a report there means the
# engine grew a goroutine or a test shares a rig) and the replica loop's
# (its receive and run goroutines, Close, the Status round trip) and PBFT's
# vote tally (held votes settled on the run goroutine while the receive
# goroutine queues more), the SRB runner (concurrent broadcasts against its
# receive goroutine, Close), the single-threaded SRB schedule explorer and
# the trincsrb sequence-number regression, and the TrInc verifier's cache
# counts (its fast path fans batches out over goroutines) under the race
# detector, five times each (so never from the test cache). TestEngine
# includes the valve's TestEngineBatchesWhilePipelineBusy. The pipelined
# client's send loop, retransmit tick and reply-vote rule run against its
# three goroutines (Submit's callers, the send loop, the receive loop).
# TestBroadcastBodyShared has three replicas decode and keep one broadcast
# payload at once (a write into a decoded body is a race), and
# TestLockstepGotBeforeWaitEnd holds a round's last Got while WaitEnd runs.
race:
	$(GO) test -race -count=5 \
		-run 'TestSelfSend|TestConcurrentSendClose|TestSendCloseRaceWindow|TestHelloWriteDeadline|TestQueue|TestSnapshotConsistentUnderConcurrentWriters|TestLabeledConcurrentScrape|TestEngine|TestLoop|TestVote|TestVerifiesOnlyWhatQuorumsNeed|TestRunner|TestSchedule|TestBroadcastSeqAfterFailedAttest|TestVerifierCachesOnlyFailures|TestPipelineSendLoopCoalesces|TestPipelineFrameOpensAtSampledRequest|TestPipelineRetransmitsOverdueInOrder|TestPipelineOKVoteOutlivesOverloadVote|TestPipelineAcceptsReplyBatch|TestReplyVotes|TestBroadcastBodyShared|TestLockstepGotBeforeWaitEnd' \
		./internal/tcpnet/ ./internal/syncx/ ./internal/obs/ ./internal/smr/ ./internal/pbft/ ./internal/srb/ ./internal/srb/trincsrb/ ./internal/trusted/trinc/ \
		./internal/minbft/ ./internal/rounds/

# soak repeats the fault-injection soak (lossy links, rolling partitions,
# a Byzantine spammer against batched checkpointing MinBFT, with the watch
# safety auditor scraping throughout) under the race detector; -count
# disables caching so each run reshuffles the schedule. A doctor one-shot
# against a live cluster closes the run.
soak:
	$(GO) test -race -count=3 -run 'TestSoak' ./internal/minbft/
	$(GO) run ./cmd/unidir-doctor -cluster minbft

# doctor runs the cluster safety auditor one-shot against a self-driven
# MinBFT cluster (exit 0 healthy, 1 on violation) plus its test surface,
# including the forged-checkpoint-digest detection case.
doctor:
	$(GO) test -race -count=1 ./internal/watch/ ./cmd/unidir-doctor/
	$(GO) run ./cmd/unidir-doctor -cluster minbft

# flake is the pre-merge flake hunt (ROADMAP "Fix first"): the tests that
# used to fail some fraction of the time, repeated; TestFigure1 (the
# paper's figure, live) ten times; the protocol packages under the race
# detector, repeated; and the failover scenario — kill the primary, view
# change, restart from the data dir — ten times. Any failure stops it. Slow
# (several minutes): run before declaring a PR done, not on every edit.
flake:
	$(GO) test -count=$(FLAKE_COUNT) -run 'TestScenario1' ./internal/separation/
	$(GO) test -count=$(FLAKE_COUNT) -run 'TestMetricsCountTraffic' ./internal/tcpnet/
	$(GO) test -count=$(FLAKE_COUNT) -run 'TestMinBFTSurvivesSpamAndReplay' ./internal/byz/
	$(GO) test -count=$(FLAKE_COUNT) -run 'TestLiveClusterForgedDigestCaught' ./internal/watch/
	$(GO) test -count=10 -run 'TestMetricsEndToEnd' ./internal/integration/
	$(GO) test -count=10 -run 'TestDoctorForgedDigestExitsNonzero' ./cmd/unidir-doctor/
	$(GO) test -count=10 -run 'TestFigure1' .
	$(GO) test -race -count=5 -run 'TestSoak' ./internal/minbft/
	$(GO) test -race -count=3 ./internal/smr/ ./internal/minbft/ ./internal/pbft/
	@for i in 1 2 3 4 5 6 7 8 9 10; do \
		echo "failover run $$i/10"; \
		$(GO) run ./bench -workload failover -quick > /dev/null || exit 1; \
	done

# loc prints non-test Go lines (wc -l) per directory — the repo root,
# internal/, cmd/, examples/; bench/ is the benchmark, not the system — and
# their total: the number ROADMAP's "report net non-test LOC" rule asks for.
loc:
	@total=0; \
	for d in . $$(find internal cmd examples -type d | sort); do \
		files=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
		[ -n "$$files" ] || continue; \
		n=$$(cat $$files | wc -l); total=$$((total + n)); \
		printf '%7d %s\n' $$n $$d; \
	done; \
	printf '%7d total\n' $$total

# trace-check re-runs the distributed-tracing test surface (context
# propagation on the wire, span lifecycle, cross-node collection, the
# end-to-end breakdown against live clusters, which request of a client
# frame carries the frame's context) under the race detector.
trace-check:
	$(GO) test -race -count=2 \
		-run 'TestTrace|TestBreakdown|TestAlignClocks|TestMerge|TestDebugSpans|TestSpan|TestFrame|TestLegacyFrame|TestTracedFrame|TestHealthAndReadiness|TestPipelineFrameOpensAtSampledRequest|TestEngineFrameTraceBelongsToFirstRequest|TestEngineTracePhases' \
		./internal/obs/... ./internal/tcpnet/ ./internal/simnet/ ./internal/harness/ ./internal/smr/ ./cmd/minbft-kv/

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSigVerify' -benchtime 1x .

# bench-pair is, with BENCHMARK.json's bounds on `go run ./bench`, the
# performance gate and the evidence for a performance claim
# (choosing-metrics §8): ./bench built at $(REF) and from the working tree,
# $(N) pairs of workload $(W) alternating which side runs first, at
# BENCHMARK.json's run length; prints each side's median and quartiles, the
# pair wins and the claim rule per end-to-end metric. `make bench-pair REF=HEAD~1 W=w-sat N=10`.
bench-pair:
	$(GO) run ./cmd/benchpair -ref $(REF) -workload $(W) -n $(N)
