GO ?= go

# Per-package test timeout. The suites size themselves down under
# -short; the full run stays well inside this on a laptop-class host.
TEST_TIMEOUT ?= 300s

.PHONY: all build vet test race short fuzz bench chaos blame ci clean

all: ci

build:
	$(GO) build ./...

# Where `make vet` drops the freshly built prcuvet binary.
PRCUVET ?= /tmp/prcuvet

# go vet plus prcuvet, the repo's own analyzer for typed-guard misuse
# (Enter without Exit, guarded-pointer escapes, retire-before-unlink).
vet:
	$(GO) vet ./...
	$(GO) build -o $(PRCUVET) ./cmd/prcuvet
	$(GO) vet -vettool=$(PRCUVET) ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

short:
	$(GO) test -short -timeout $(TEST_TIMEOUT) ./...

# Race-enabled pass over the packages with real concurrency: the public
# API (reader pool + churn), the engine core (including the torture
# suite), and the two RCU-backed structures.
race:
	$(GO) test -race -short -timeout $(TEST_TIMEOUT) . ./internal/core ./internal/reclaim ./citrus ./hashtable ./guard

# Chaos suite: seeded deterministic fault injection (torture over every
# engine, stall watchdog, deadline-bounded waits) under the race detector.
chaos:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/chaos

# Brief coverage-guided fuzzing on top of the checked-in seed corpora.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPredicate -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzHashtableResize -fuzztime $(FUZZTIME) ./hashtable

bench:
	$(GO) run ./cmd/prcubench -duration 150ms -runs 1 stats

# Reader-blame demo: flight recorder armed, one deterministically slow
# reader planted via chaos injection, verdict names the guilty slot.
MONITOR_FOR ?= 10s
blame:
	$(GO) run ./cmd/prcubench -monitor-for $(MONITOR_FOR) blame

ci:
	./ci.sh

clean:
	$(GO) clean -testcache
