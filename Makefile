GO ?= go

.PHONY: build test vet race fuzz serve demo bench soak soak-gateway soak-record clean

SOAK_DURATION ?= 30s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

fuzz: ## bounded fuzzing, 15 s per target (each new input minimized for at most 3 s): occurrence tables vs a naive count, Extend vs a brute-force text scan, both DP kernels vs their frozen oracles, the AVX-512BW extension job kernel vs the int32 Go row, the AVX-512 global fill vs the Go fill cell for cell, the FASTQ and JSON request decoders, the JSON read codec against encoding/json (decoder and encoder), the index reader, the client's Server-Timing and Retry-After parsers, the result cache's byte and hit accounting, the gateway's SAM group splitter, the ordered stream writer's call sequences
	set -e; for t in internal/fmindex:FuzzOccCount4 internal/fmindex:FuzzExtend internal/bsw:FuzzExtendScalar internal/bsw:FuzzExtendJob internal/bsw:FuzzGlobal internal/bsw:FuzzGlobalFill \
		internal/seq:FuzzFastqScanner internal/seq:FuzzDecodeJSONReads internal/seq:FuzzDecodeJSONReadsMatchesStd internal/seq:FuzzAppendJSONReads \
		internal/core:FuzzReadIndex pkg/bwaclient:FuzzParseServerTiming pkg/bwaclient:FuzzRetryWait \
		internal/rescache:FuzzCache internal/gateway:FuzzSplitGroups internal/ordered:FuzzOrderedWriter; do \
		$(GO) test ./$${t%%:*} -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 15s -fuzzminimizetime 3s; \
	done

serve: ## run the alignment server on a synthetic genome
	$(GO) run ./cmd/bwaserve -addr :8080 -synthetic 200000

demo: ## in-process client/server round trip
	$(GO) run ./examples/serverdemo

bench: ## the repository's benchmark on tiny inputs (see internal/bench/README.md for the full run)
	$(GO) run ./cmd/bwabench -quick -seconds 1

soak: ## sustained mixed-load run against an in-process server; fails on any violated invariant
	$(GO) run ./cmd/bwasoak -duration $(SOAK_DURATION) -seed 1 > /dev/null

soak-gateway: ## gateway-tier soak: 2 replicas behind bwagate, kill-restart chaos, any transport error fails
	$(GO) run ./cmd/bwasoak -duration $(SOAK_DURATION) -seed 1 -topology gateway:2 -chaos kill-restart > /dev/null

soak-record: ## regenerate the committed soak record (gateway topology riding kill-restart chaos)
	$(GO) run ./cmd/bwasoak -duration $(SOAK_DURATION) -seed 1 -topology gateway:2 -chaos kill-restart -report BENCH_soak.json > /dev/null

clean:
	$(GO) clean ./...
