# Developer entry points. CI runs the same steps (see
# .github/workflows/ci.yml); keep them in sync.

GO ?= go
PSDNSLINT := bin/psdnslint

.PHONY: all build test fuzz lint lint-fix fmt bench loc clean

all: build test lint

build:
	$(GO) build ./...

# benchmark/ is a nested module, so ./... does not see it; vet and
# smoke-test it against the tree so an engine refactor cannot silently
# break the benchmark build.
test:
	$(GO) test ./...
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

# fuzz runs the tree's native fuzz targets for a few seconds each from
# their committed seed corpora (testdata/fuzz); new crashers land there.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBatchLayout -fuzztime 10s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzPlaneKernels -fuzztime 10s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzRealPassKernels -fuzztime 10s ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzPencilColumnBijective -fuzztime 10s ./internal/transpose
	$(GO) test -run '^$$' -fuzz FuzzSlabLayout -fuzztime 10s ./internal/transpose
	$(GO) test -run '^$$' -fuzz FuzzTruncateBand -fuzztime 10s ./internal/pfft
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzSeededDraws -fuzztime 10s ./internal/spectral
	$(GO) test -run '^$$' -fuzz FuzzCacheLookup -fuzztime 10s ./internal/tuning
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s -fuzzminimizetime 100x ./internal/spectral
	$(GO) test -run '^$$' -fuzz FuzzPeekCheckpoint -fuzztime 10s ./internal/spectral

# lint = gofmt (fail on unformatted files) + no Deprecated: marker
# anywhere (superseded surface is deleted, not kept; benchmark/ and
# testdata/ are exempt) + no hand-written Fourier slab walk (idx++) in
# internal/spectral outside modes.go + go vet + the repo's own psdnslint analyzer
# suite, plus staticcheck when it is installed (local toolchains may
# not have it; CI installs it and makes it blocking).
lint: $(PSDNSLINT)
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@out=$$(grep -rn 'Deprecated:' --include='*.go' . | grep -v '^\./benchmark/\|/testdata/'); \
		if [ -n "$$out" ]; then \
		echo "deprecated surface is removed, not kept:" >&2; echo "$$out" >&2; exit 1; fi
	@out=$$(grep -n 'idx++' internal/spectral/*.go | grep -v '_test\.go:\|/modes\.go:'); \
		if [ -n "$$out" ]; then \
		echo "walk the Fourier slab with walkRows (internal/spectral/modes.go):" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=$$PWD/$(PSDNSLINT) ./... ./examples/...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# lint-fix is the triage form of lint: it runs the whole analyzer
# suite across every package (including examples) without stopping at
# the first failure and prints each finding as a file:line link —
# paste-able into an editor or terminal that hyperlinks them. Always
# exits 0; use `make lint` as the gate.
lint-fix: $(PSDNSLINT)
	@$(GO) vet -vettool=$$PWD/$(PSDNSLINT) ./... ./examples/... 2>&1 \
		| grep -v '^#' | grep -v '^$$' \
		| sed 's|^\./||' || true
	@echo "lint-fix: findings above (if any) as file:line — fix or add //psdns:allow <analyzer> <reason>"

# The vettool must be a prebuilt binary: go vet invokes it once per
# package with the -V/-flags/cfg protocol, which `go run` cannot serve.
$(PSDNSLINT): $(wildcard cmd/psdnslint/*.go) $(wildcard internal/analysis/*.go) go.mod
	$(GO) build -o $@ ./cmd/psdnslint

fmt:
	gofmt -w .

bench:
	$(GO) run ./cmd/bench -quick -out /tmp/BENCH_step.json \
		-baseline BENCH_step.json -check

# loc prints non-blank, non-comment, non-test Go lines per internal
# package — the unit the ROADMAP's "least code" items are stated in —
# and the same count over the whole tree (root, cmd/ and examples/
# included; benchmark/, .bench_build/ and testdata/ excluded).
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' "$$(ls $$d*.go | grep -v _test.go | xargs cat | grep -vc '^\s*$$\|^\s*//')" "$${d%/}"; \
	done
	@printf '%6d  total\n' "$$(find . -name '*.go' ! -name '*_test.go' \
		! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs cat | grep -vc '^\s*$$\|^\s*//')"

clean:
	rm -rf bin bench-out
