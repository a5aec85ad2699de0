package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parade/internal/harness"
)

// ReplaySummary reports what a replay covered and found.
type ReplaySummary struct {
	Cells      int // scenario cells replayed
	Mismatches int // cells whose HTTP result differed from in-process
	CacheHits  int // cells served Cached=true on the repeat batch
	// ExecDelta is the change in parade_fleet_executions_total across the
	// repeat batch, scraped from /metrics: 0 proves every repeat was a
	// cache hit that skipped execution.
	ExecDelta int64
}

// Replay drives the scenario matrix through a running service and
// asserts three things:
//
//  1. Identity: every cell's HTTP result (ResultBits, MemHash,
//     StateFingerprint, TimeNs, KernelNs) is byte-for-byte equal to an
//     in-process run of the same spec — the service path adds nothing
//     and loses nothing.
//  2. Dedupe: re-posting the identical batch returns every cell with
//     cached=true and the identical result.
//  3. Cache-skip: /metrics' parade_fleet_executions_total does not move
//     across the repeat batch — hits provably never re-run.
//
// baseURL is the service root (e.g. http://127.0.0.1:8080); log, when
// non-nil, receives progress lines. A non-nil error reports the first
// hard failure; mismatch counts are in the summary either way.
func Replay(baseURL string, m harness.Matrix, log io.Writer) (ReplaySummary, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	if err := m.Validate(); err != nil {
		return ReplaySummary{}, fmt.Errorf("replay: %w", err)
	}
	specs := m.Expand()
	for i := range specs {
		specs[i].ID = fmt.Sprintf("replay-%d", i)
	}
	sum := ReplaySummary{Cells: len(specs)}
	logf("replay: %d scenario cells against %s", len(specs), baseURL)

	// In-process reference: a fresh executor, no cache anywhere near it.
	ref := make([]JobResult, len(specs))
	exec := &Executor{}
	for i, spec := range specs {
		res, err := exec.Run(spec)
		if err != nil {
			return sum, fmt.Errorf("replay: in-process run %s: %w", spec.Canonical(), err)
		}
		if res.Status != StatusOK {
			return sum, fmt.Errorf("replay: in-process run %s: status %s: %s",
				spec.Canonical(), res.Status, res.Error)
		}
		ref[i] = res
	}
	logf("replay: in-process reference complete (%d executions)", exec.Executions())

	// Jitter is deterministic per matrix so two replays of the same
	// matrix back off identically.
	seed := int64(1)
	if len(m.Seeds) > 0 {
		seed = m.Seeds[0]
	}
	rng := rand.New(rand.NewSource(seed + 0x9e3779b9))

	// Pass 1: service results must be identical to the in-process runs.
	got, err := postSpecs(baseURL, specs, rng, logf)
	if err != nil {
		return sum, fmt.Errorf("replay pass 1: %w", err)
	}
	for i, spec := range specs {
		if diff := diffResults(ref[i], got[i]); diff != "" {
			sum.Mismatches++
			logf("replay: MISMATCH %s: %s", spec.Canonical(), diff)
		}
	}
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("replay: %d/%d cells differ between service and in-process paths",
			sum.Mismatches, sum.Cells)
	}
	logf("replay: pass 1 identical to in-process on all %d cells", sum.Cells)

	// Pass 2: the repeat batch must be all cache hits with identical
	// results, and must not move the execution counter.
	before, err := scrapeExecutions(baseURL)
	if err != nil {
		return sum, fmt.Errorf("replay: scraping /metrics before repeat: %w", err)
	}
	repeat, err := postSpecs(baseURL, specs, rng, logf)
	if err != nil {
		return sum, fmt.Errorf("replay pass 2: %w", err)
	}
	after, err := scrapeExecutions(baseURL)
	if err != nil {
		return sum, fmt.Errorf("replay: scraping /metrics after repeat: %w", err)
	}
	sum.ExecDelta = after - before
	for i, spec := range specs {
		res := repeat[i]
		if res.Cached {
			sum.CacheHits++
		} else {
			sum.Mismatches++
			logf("replay: repeat of %s not served from cache", spec.Canonical())
		}
		if diff := diffResults(ref[i], res); diff != "" {
			sum.Mismatches++
			logf("replay: MISMATCH on cached %s: %s", spec.Canonical(), diff)
		}
	}
	if sum.Mismatches > 0 {
		return sum, fmt.Errorf("replay: repeat batch had %d failures", sum.Mismatches)
	}
	if sum.ExecDelta != 0 {
		return sum, fmt.Errorf("replay: repeat batch executed %d simulations; cache hits must never re-run",
			sum.ExecDelta)
	}
	logf("replay: pass 2 all %d cells cached, executions_total unchanged", sum.CacheHits)
	return sum, nil
}

// postAttempts bounds the overload/restart retry loop: a 429 (queue
// full) is retried after the server's Retry-After hint, a 503 (draining
// server, or a rolling restart's brief gap) with exponential backoff.
// Both sleeps are jittered so a fleet of clients that were rejected
// together does not reconverge on the same instant.
const postAttempts = 5

func postWithBackoff(url string, body []byte, rng *rand.Rand, logf func(string, ...any)) (*http.Response, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			lastErr = fmt.Errorf("POST /v1/jobs: %w", err)
		} else {
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				hint := time.Second
				if s, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && s > 0 {
					hint = time.Duration(s) * time.Second
				}
				resp.Body.Close()
				lastErr = fmt.Errorf("POST /v1/jobs: 429 queue full")
				if attempt < postAttempts {
					d := jitter(hint, rng)
					logf("replay: 429, honoring Retry-After %v (jittered %v), attempt %d/%d", hint, d, attempt, postAttempts)
					time.Sleep(d)
					continue
				}
			case http.StatusServiceUnavailable:
				resp.Body.Close()
				lastErr = fmt.Errorf("POST /v1/jobs: 503 draining")
				if attempt < postAttempts {
					d := jitter(100*time.Millisecond<<(attempt-1), rng)
					logf("replay: 503, backing off %v, attempt %d/%d", d, attempt, postAttempts)
					time.Sleep(d)
					continue
				}
			default:
				return resp, nil
			}
		}
		if attempt >= postAttempts {
			return nil, fmt.Errorf("%w (after %d attempts)", lastErr, attempt)
		}
		d := jitter(100*time.Millisecond<<(attempt-1), rng)
		time.Sleep(d)
	}
}

// jitter scales d by a uniform factor in [0.5, 1.5).
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// diffResults compares the identity observables of two results and
// describes the first difference ("" when identical).
func diffResults(want, got JobResult) string {
	switch {
	case got.Status != StatusOK:
		return fmt.Sprintf("status %q (%s)", got.Status, got.Error)
	case got.ResultBits != want.ResultBits:
		return fmt.Sprintf("result_bits %s != %s", got.ResultBits, want.ResultBits)
	case got.MemHash != want.MemHash:
		return fmt.Sprintf("mem_hash %s != %s", got.MemHash, want.MemHash)
	case got.StateFingerprint != want.StateFingerprint:
		return fmt.Sprintf("state_fingerprint %s != %s", got.StateFingerprint, want.StateFingerprint)
	case got.TimeNs != want.TimeNs:
		return fmt.Sprintf("time_ns %d != %d", got.TimeNs, want.TimeNs)
	case got.KernelNs != want.KernelNs:
		return fmt.Sprintf("kernel_ns %d != %d", got.KernelNs, want.KernelNs)
	}
	return ""
}

// scrapeExecutions reads parade_fleet_executions_total off /metrics.
func scrapeExecutions(baseURL string) (int64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "parade_fleet_executions_total ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "parade_fleet_executions_total ")), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing executions_total: %w", err)
		}
		return v, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("parade_fleet_executions_total not found in /metrics")
}
